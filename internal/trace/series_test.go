package trace

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestSeriesBinning(t *testing.T) {
	s := NewSeries("in", sim.Second)
	s.Add(0, 1)
	s.Add(sim.Time(999_999), 2)         // still bin 0
	s.Add(sim.Time(1_000_000), 4)       // bin 1
	s.Add(sim.Time(5*1_000_000+17), 10) // bin 5
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	if s.Bin(0) != 3 || s.Bin(1) != 4 || s.Bin(5) != 10 {
		t.Fatalf("bins = %v", s.Bins())
	}
	if s.Bin(2) != 0 || s.Bin(100) != 0 || s.Bin(-1) != 0 {
		t.Fatal("out-of-range bins must read 0")
	}
	if s.Total() != 17 || s.Count() != 4 {
		t.Fatalf("total=%v count=%v", s.Total(), s.Count())
	}
	if s.Max() != 10 {
		t.Fatalf("Max = %v", s.Max())
	}
}

func TestSeriesReset(t *testing.T) {
	s := NewSeries("x", sim.Second)
	s.Add(0, 5)
	s.Reset()
	if s.Len() != 0 || s.Total() != 0 || s.Count() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestAddSpreadConservesMass(t *testing.T) {
	s := NewSeries("io", sim.Second)
	s.AddSpread(sim.Time(500_000), 3*sim.Second, 30)
	if got := s.Total(); got < 29.999 || got > 30.001 {
		t.Fatalf("spread total = %v, want 30", got)
	}
	// Spans bins 0..3 (starts mid-bin 0, ends at 3.5s).
	if s.Len() != 4 {
		t.Fatalf("spread bins = %d, want 4", s.Len())
	}
	for i := 0; i < 4; i++ {
		if s.Bin(i) != 7.5 {
			t.Fatalf("bin %d = %v, want 7.5", i, s.Bin(i))
		}
	}
}

func TestAddSpreadZeroDuration(t *testing.T) {
	s := NewSeries("io", sim.Second)
	s.AddSpread(sim.Time(100), 0, 5)
	if s.Bin(0) != 5 || s.Len() != 1 {
		t.Fatalf("zero-duration spread: bins=%v", s.Bins())
	}
}

// Property: mass is conserved by AddSpread for arbitrary placements.
func TestQuickSpreadConservation(t *testing.T) {
	f := func(start uint32, durMs uint16, v uint16) bool {
		s := NewSeries("q", sim.Second)
		val := float64(v)
		s.AddSpread(sim.Time(start), sim.Duration(durMs)*sim.Millisecond, val)
		diff := s.Total() - val
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderSeriesIdentityAndOrder(t *testing.T) {
	r := NewRecorder(sim.Second)
	a := r.Series("pagein")
	b := r.Series("pageout")
	if r.Series("pagein") != a {
		t.Fatal("Series not memoized")
	}
	if !r.Has("pageout") || r.Has("nope") {
		t.Fatal("Has wrong")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "pagein" || names[1] != "pageout" {
		t.Fatalf("Names = %v", names)
	}
	_ = b
}

func TestCSV(t *testing.T) {
	r := NewRecorder(sim.Second)
	r.Series("in").Add(0, 1)
	r.Series("in").Add(2*1_000_000, 3)
	r.Series("out").Add(1*1_000_000, 2)
	csv := r.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "time_s,in,out" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("rows = %d, want 4 (header+3)", len(lines))
	}
	if lines[1] != "0,1.00,0.00" || lines[2] != "1,0.00,2.00" || lines[3] != "2,3.00,0.00" {
		t.Fatalf("csv rows wrong:\n%s", csv)
	}
	// Selecting one series restricts columns; unknown names are skipped.
	one := r.CSV("out", "missing")
	if !strings.HasPrefix(one, "time_s,out\n") {
		t.Fatalf("selected csv header wrong: %q", one)
	}
}

func TestASCIIChart(t *testing.T) {
	s := NewSeries("in", sim.Second)
	for i := 0; i < 10; i++ {
		s.Add(sim.Time(i)*1_000_000, float64(i))
	}
	out := s.ASCII(5, 20)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // title + 2 groups
		t.Fatalf("ascii lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "#") {
		t.Fatalf("second group should have bars:\n%s", out)
	}
	if strings.Count(lines[1], "#") >= strings.Count(lines[2], "#") {
		t.Fatalf("bar lengths not proportional:\n%s", out)
	}
}

func TestActiveSpanAndBins(t *testing.T) {
	s := NewSeries("x", sim.Second)
	s.Add(3*1_000_000, 5)
	s.Add(7*1_000_000, 5)
	first, last, ok := s.ActiveSpan(1)
	if !ok || first != 3 || last != 7 {
		t.Fatalf("span = %d..%d ok=%v", first, last, ok)
	}
	if n := s.ActiveBins(1); n != 2 {
		t.Fatalf("active bins = %d", n)
	}
	if _, _, ok := NewSeries("e", sim.Second).ActiveSpan(0); ok {
		t.Fatal("empty series reports a span")
	}
}

func TestBadBinWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bin width did not panic")
		}
	}()
	NewSeries("x", 0)
}

func TestRecorderBadBinWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bin width did not panic")
		}
	}()
	NewRecorder(-1)
}

func TestNegativeTimeClampsToBinZero(t *testing.T) {
	s := NewSeries("x", sim.Second)
	s.Add(sim.Time(-5), 2)
	if s.Bin(0) != 2 {
		t.Fatalf("negative time not clamped: %v", s.Bins())
	}
}
