package disk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/sim"
)

// testParams uses round numbers so timing assertions stay readable:
// 8 ms seek, 4 ms rotational latency, 100 µs per page.
func testParams() Params {
	return Params{Seek: 8 * sim.Millisecond, Rot: 4 * sim.Millisecond, PerPage: 100 * sim.Microsecond}
}

func newTestDisk(t *testing.T) (*sim.Engine, *Disk) {
	t.Helper()
	eng := sim.NewEngine(1)
	return eng, New(eng, testParams())
}

func TestSingleRequestTiming(t *testing.T) {
	eng, d := newTestDisk(t)
	var svc sim.Duration
	done := false
	d.Submit(&Request{
		Runs: []Run{{Start: 100, N: 16}},
		Done: func(s sim.Duration) { svc = s; done = true },
	})
	eng.Run()
	if !done {
		t.Fatal("request never completed")
	}
	want := 8*sim.Millisecond + 4*sim.Millisecond + 16*100*sim.Microsecond
	if svc != want {
		t.Fatalf("service = %v, want %v", svc, want)
	}
	if eng.Now() != sim.Time(want) {
		t.Fatalf("completion at %v, want %v", eng.Now(), sim.Time(want))
	}
}

func TestSequentialRunSkipsSeek(t *testing.T) {
	eng, d := newTestDisk(t)
	var svcs []sim.Duration
	rec := func(s sim.Duration) { svcs = append(svcs, s) }
	d.Submit(&Request{Runs: []Run{{Start: 0, N: 8}}, Done: rec})
	// Next request starts exactly where the head lands: no seek.
	d.Submit(&Request{Runs: []Run{{Start: 8, N: 8}}, Done: rec})
	eng.Run()
	if len(svcs) != 2 {
		t.Fatalf("completions = %d", len(svcs))
	}
	if svcs[0] <= svcs[1] {
		t.Fatalf("sequential follow-up (%v) should be cheaper than seeking first request (%v)", svcs[1], svcs[0])
	}
	if svcs[1] != 8*100*sim.Microsecond {
		t.Fatalf("sequential service = %v, want transfer-only", svcs[1])
	}
	st := d.Stats()
	if st.Seeks != 1 || st.SequentialRuns != 1 {
		t.Fatalf("seeks=%d seq=%d", st.Seeks, st.SequentialRuns)
	}
}

func TestBlockVersusScattered(t *testing.T) {
	// One 256-page sequential read must be far cheaper than 256 scattered
	// single-page reads — the premise of block paging.
	eng, d := newTestDisk(t)
	block := d.ServiceTime(&Request{Runs: []Run{{Start: 1000, N: 256}}})
	var scattered sim.Duration
	for i := 0; i < 256; i++ {
		scattered += d.ServiceTime(&Request{Runs: []Run{{Start: Slot(i * 7), N: 1}}})
	}
	if scattered < 20*block {
		t.Fatalf("scattered %v not ≫ block %v", scattered, block)
	}
	_ = eng
}

func TestDemandPreemptsQueuedBackground(t *testing.T) {
	eng, d := newTestDisk(t)
	var order []string
	// First request occupies the disk.
	d.Submit(&Request{Runs: []Run{{Start: 0, N: 1}}, Done: func(sim.Duration) { order = append(order, "first") }})
	// Queue a background then a demand request; demand must run first even
	// though it arrived later.
	d.Submit(&Request{Runs: []Run{{Start: 50, N: 1}}, Prio: Background, Write: true,
		Done: func(sim.Duration) { order = append(order, "bg") }})
	d.Submit(&Request{Runs: []Run{{Start: 90, N: 1}},
		Done: func(sim.Duration) { order = append(order, "demand") }})
	eng.Run()
	if len(order) != 3 || order[0] != "first" || order[1] != "demand" || order[2] != "bg" {
		t.Fatalf("order = %v", order)
	}
}

func TestInServiceNotPreempted(t *testing.T) {
	eng, d := newTestDisk(t)
	var order []string
	d.Submit(&Request{Runs: []Run{{Start: 0, N: 100}}, Prio: Background, Write: true,
		Done: func(sim.Duration) { order = append(order, "bg") }})
	if !d.Busy() {
		t.Fatal("disk should be busy immediately")
	}
	d.Submit(&Request{Runs: []Run{{Start: 500, N: 1}},
		Done: func(sim.Duration) { order = append(order, "demand") }})
	eng.Run()
	if order[0] != "bg" {
		t.Fatalf("in-service background was preempted: %v", order)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, d := newTestDisk(t)
	d.Submit(&Request{Runs: []Run{{Start: 0, N: 4}}})
	d.Submit(&Request{Runs: []Run{{Start: 100, N: 6}}, Write: true, Prio: Background})
	eng.Run()
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("reads=%d writes=%d", st.Reads, st.Writes)
	}
	if st.PagesRead != 4 || st.PagesWritten != 6 {
		t.Fatalf("pagesRead=%d pagesWritten=%d", st.PagesRead, st.PagesWritten)
	}
	if st.DemandTime == 0 || st.BackgroundTime == 0 {
		t.Fatalf("time split missing: %+v", st)
	}
	if st.BusyTime != st.DemandTime+st.BackgroundTime {
		t.Fatalf("busy %v != demand %v + bg %v", st.BusyTime, st.DemandTime, st.BackgroundTime)
	}
	if d.QueueLen() != 0 || d.Busy() {
		t.Fatal("disk not idle after drain")
	}
}

// TestTracerSeesTransfers checks the DiskTransfer events a disk emits,
// the input of the paging-activity series: one per completed request,
// carrying its pages, direction and service time.
func TestTracerSeesTransfers(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, testParams())
	ring := obs.NewRing(16)
	d.SetObs(obs.NewNodeObs(nil, obs.NewBus(ring), 0))
	d.Submit(&Request{Runs: []Run{{Start: 0, N: 10}}})
	d.Submit(&Request{Runs: []Run{{Start: 99, N: 5}}, Write: true})
	eng.Run()
	var calls, pages, writes int
	var dur sim.Duration
	for _, ev := range ring.Events() {
		if ev.Kind != obs.KindDiskTransfer {
			continue
		}
		calls++
		pages += ev.Pages
		dur += ev.Dur
		if ev.Write {
			writes++
		}
	}
	if calls != 2 || pages != 15 || writes != 1 {
		t.Fatalf("transfer events: calls=%d pages=%d writes=%d", calls, pages, writes)
	}
	if dur != d.Stats().BusyTime {
		t.Fatalf("transfer durations %v != busy %v", dur, d.Stats().BusyTime)
	}
}

func TestSubmitValidation(t *testing.T) {
	eng, d := newTestDisk(t)
	for _, bad := range []*Request{
		{},
		{Runs: []Run{{Start: 0, N: 0}}},
		{Runs: []Run{{Start: -1, N: 1}}},
		{Runs: []Run{{Start: 0, N: 1}}, Prio: Priority(7)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Submit(%+v) did not panic", bad)
				}
			}()
			d.Submit(bad)
		}()
	}
	_ = eng
}

func TestParamsValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero PerPage accepted")
		}
	}()
	New(eng, Params{Seek: 1, Rot: 1, PerPage: 0})
}

func TestCoalesce(t *testing.T) {
	runs := Coalesce([]Slot{5, 1, 2, 3, 9, 10, 3})
	want := []Run{{1, 3}, {5, 1}, {9, 2}}
	if len(runs) != len(want) {
		t.Fatalf("runs = %v", runs)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("runs = %v, want %v", runs, want)
		}
	}
	if Coalesce(nil) != nil {
		t.Fatal("empty input should return nil")
	}
}

// Property: Coalesce covers exactly the input slot set with disjoint,
// sorted, maximal runs.
func TestQuickCoalesce(t *testing.T) {
	f := func(raw []uint16) bool {
		slots := make([]Slot, len(raw))
		set := map[Slot]bool{}
		for i, v := range raw {
			slots[i] = Slot(v)
			set[Slot(v)] = true
		}
		runs := Coalesce(slots)
		covered := map[Slot]bool{}
		var prevEnd Slot = -1
		for _, r := range runs {
			if r.N <= 0 || r.Start <= prevEnd && prevEnd >= 0 {
				return false // unsorted or touching runs (should be merged)
			}
			for s := r.Start; s < r.End(); s++ {
				if covered[s] {
					return false
				}
				covered[s] = true
			}
			prevEnd = r.End()
		}
		if len(covered) != len(set) {
			return false
		}
		for s := range set {
			if !covered[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitRuns(t *testing.T) {
	out := SplitRuns([]Run{{0, 10}, {100, 3}}, 4)
	want := []Run{{0, 4}, {4, 4}, {8, 2}, {100, 3}}
	if len(out) != len(want) {
		t.Fatalf("split = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("split = %v, want %v", out, want)
		}
	}
}

func TestSplitRunsBadCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SplitRuns([]Run{{0, 1}}, 0)
}

// Property: service time is monotonic in page count for a fixed start.
func TestQuickServiceMonotonic(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, testParams())
	f := func(n uint8) bool {
		a := d.ServiceTime(&Request{Runs: []Run{{Start: 1000, N: int(n) + 1}}})
		b := d.ServiceTime(&Request{Runs: []Run{{Start: 1000, N: int(n) + 2}}})
		return b > a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxQueueLenTracked(t *testing.T) {
	eng, d := newTestDisk(t)
	for i := 0; i < 5; i++ {
		d.Submit(&Request{Runs: []Run{{Start: Slot(i * 10), N: 1}}})
	}
	eng.Run()
	if d.Stats().MaxQueueLen != 4 { // first goes straight to service
		t.Fatalf("MaxQueueLen = %d, want 4", d.Stats().MaxQueueLen)
	}
}

func TestPriorityString(t *testing.T) {
	if Demand.String() != "demand" || Background.String() != "background" {
		t.Fatal("priority strings wrong")
	}
	if Priority(9).String() != "priority(9)" {
		t.Fatalf("unknown priority string = %q", Priority(9).String())
	}
}
