package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{99, 90, 0, false}, // rank 90 leaves 9 beyond
		{100, 90, 90, true},
		{999, 99, 0, false},
		{1000, 99, 990, true},
		{19, 50, 0, false},
		{20, 50, 10, true},
		{0, 90, 0, false},
	} {
		got, ok := percentile(samples(tc.n), tc.p)
		if ok != tc.ok || got != tc.want {
			t.Errorf("p%v of %d samples = %v, %v; want %v, %v", tc.p, tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
}

func TestFoldChargesInnermostRepoFrame(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"map access under clock sweep", []string{
			"runtime.mapaccess1_fast64",
			"repro/internal/vm.(*VM).clockSweep",
			"repro/internal/vm.(*VM).Fault",
			"repro/internal/proc.(*Rank).stepTouch",
			"repro/internal/sim.(*Engine).Run",
			"main.main",
		}, "vm"},
		{"GC worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker",
			"runtime.goexit",
		}, "runtime"},
		{"malloc in a store closure", []string{
			"runtime.mallocgc",
			"repro/internal/store.(*Store).Scan.func1",
			"repro/internal/serve.(*Server).handleRunEvents",
		}, "store"},
		{"root package", []string{"repro.RunDetailedContext", "main.main"}, "gangsched"},
		{"generic instantiation", []string{"repro/internal/expt.mapN[...].func1"}, "expt"},
		{"load generator", []string{"encoding/json.Marshal", "main.(*service).job"}, "bench"},
		{"benchmark test binary", []string{"repro/perfbench.spin"}, "bench"},
		{"unlisted repo package", []string{"repro/internal/plot.Render"}, "other"},
		{"HTTP plumbing outside handlers", []string{"net/http.(*conn).readRequest", "net/http.(*conn).serve"}, "runtime"},
		{"no frames", nil, "runtime"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("%s: charged to %q, want %q", tc.name, got, tc.want)
		}
	}
}

var sink uint64

//go:noinline
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink = sink*6364136223846793005 + 1442695040888963407
		}
	}
}

func TestFoldDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	f := newFolder()
	if err := f.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	shares := f.shares()
	var total float64
	for _, v := range shares {
		total += v
	}
	if f.samples["bench"] == 0 || total < 99.9 || total > 100.1 {
		t.Fatalf("fold of a profile spent spinning: samples %v, shares sum to %v", f.samples, total)
	}
	if shares["bench.cpu_share"] < 50 {
		t.Errorf("bench.cpu_share = %.1f%%, want most of a profile spent in spin", shares["bench.cpu_share"])
	}
}

func TestRangeFilter(t *testing.T) {
	evs := []obs.Event{
		{Seq: 1, T: 10, Node: 0},
		{Seq: 2, T: 20, Node: 1},
		{Seq: 3, T: 20, Node: obs.ClusterScope},
		{Seq: 4, T: 30, Node: 0},
		{Seq: 5, T: 40, Node: 1},
	}
	node := func(n int) *int { return &n }
	for _, tc := range []struct {
		name string
		q    store.Query
		want []uint64
	}{
		{"from is inclusive, to exclusive", store.Query{From: 20, To: 40}, []uint64{2, 3, 4}},
		{"to 0 is unbounded", store.Query{From: 30}, []uint64{4, 5}},
		{"node keeps only that node", store.Query{Node: node(1)}, []uint64{2, 5}},
		{"cluster scope", store.Query{Node: node(obs.ClusterScope)}, []uint64{3}},
		{"window and node", store.Query{From: 10, To: 31, Node: node(0)}, []uint64{1, 4}},
	} {
		var got []uint64
		for _, ev := range evs {
			if inWindow(ev, tc.q) {
				got = append(got, ev.Seq)
			}
		}
		if !equalSeqs(got, tc.want) {
			t.Errorf("%s: kept %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRangeFilterMatchesStore checks the filter against the store's own
// range query over the same events.
func TestRangeFilterMatchesStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.Writer("run", store.WriterOptions{BlockEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	var evs []obs.Event
	for i := 0; i < 40; i++ {
		ev := obs.Event{Seq: uint64(i), T: sim.Time(5 * (i / 2)), Kind: obs.KindJobSwitch, Node: i%3 - 1}
		evs = append(evs, ev)
		if err := w.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	node := 1
	for _, q := range []store.Query{
		{Run: "run", From: 15, To: 55},
		{Run: "run", From: 0, To: 5},
		{Run: "run", From: 30, Node: &node},
	} {
		var want, got []uint64
		for _, ev := range evs {
			if inWindow(ev, q) {
				want = append(want, ev.Seq)
			}
		}
		if err := st.Scan(q, func(ev obs.Event) error { got = append(got, ev.Seq); return nil }); err != nil {
			t.Fatal(err)
		}
		if !equalSeqs(got, want) {
			t.Errorf("query %+v: store returned %v, filter kept %v", q, got, want)
		}
	}
}

func equalSeqs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBenchmarkJSONMatchesOutput checks that BENCHMARK.json lists exactly
// the metrics, with the units, that the runs print.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	perLayer := map[string]string{"trace_overhead_pct": "%"}
	for name := range newFolder().shares() {
		perLayer[name] = "%"
	}
	for name := range newProbe(time.Now()).counters() {
		perLayer[name] = counterUnits[name]
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed map[string]string) {
		seen := map[string]bool{}
		for _, m := range listed {
			seen[m.Name] = true
			if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s metric %q (%s) in BENCHMARK.json: printed unit %q, present %v", kind, m.Name, m.Unit, unit, ok)
			}
		}
		for name := range printed {
			if !seen[name] {
				t.Errorf("%s metric %q is printed but missing from BENCHMARK.json", kind, name)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEndUnits)
	check("per-layer", spec.PerLayer, perLayer)
}
