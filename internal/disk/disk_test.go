package disk

import (
	"math/rand"
	"slices"
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
		Run:  Run{Start: 100, N: 16},
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
	d.Submit(&Request{Run: Run{Start: 0, N: 8}, Done: rec})
	// Next request starts exactly where the head lands: no seek.
	d.Submit(&Request{Run: Run{Start: 8, N: 8}, Done: rec})
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
	block := d.ServiceTime(&Request{Run: Run{Start: 1000, N: 256}})
	var scattered sim.Duration
	for i := 0; i < 256; i++ {
		scattered += d.ServiceTime(&Request{Run: Run{Start: Slot(i * 7), N: 1}})
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
	d.Submit(&Request{Run: Run{Start: 0, N: 1}, Done: func(sim.Duration) { order = append(order, "first") }})
	// Queue a background then a demand request; demand must run first even
	// though it arrived later.
	d.Submit(&Request{Run: Run{Start: 50, N: 1}, Prio: Background, Write: true,
		Done: func(sim.Duration) { order = append(order, "bg") }})
	d.Submit(&Request{Run: Run{Start: 90, N: 1},
		Done: func(sim.Duration) { order = append(order, "demand") }})
	eng.Run()
	if len(order) != 3 || order[0] != "first" || order[1] != "demand" || order[2] != "bg" {
		t.Fatalf("order = %v", order)
	}
}

func TestInServiceNotPreempted(t *testing.T) {
	eng, d := newTestDisk(t)
	var order []string
	d.Submit(&Request{Run: Run{Start: 0, N: 100}, Prio: Background, Write: true,
		Done: func(sim.Duration) { order = append(order, "bg") }})
	if !d.Busy() {
		t.Fatal("disk should be busy immediately")
	}
	d.Submit(&Request{Run: Run{Start: 500, N: 1},
		Done: func(sim.Duration) { order = append(order, "demand") }})
	eng.Run()
	if order[0] != "bg" {
		t.Fatalf("in-service background was preempted: %v", order)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, d := newTestDisk(t)
	d.Submit(&Request{Run: Run{Start: 0, N: 4}})
	d.Submit(&Request{Run: Run{Start: 100, N: 6}, Write: true, Prio: Background})
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
	d.Submit(&Request{Run: Run{Start: 0, N: 10}})
	d.Submit(&Request{Run: Run{Start: 99, N: 5}, Write: true})
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
		{Run: Run{Start: 0, N: 0}},
		{Run: Run{Start: -1, N: 1}},
		{Run: Run{Start: 0, N: 1}, Prio: Priority(7)},
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

// Property: service time is monotonic in page count for a fixed start.
func TestQuickServiceMonotonic(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, testParams())
	f := func(n uint8) bool {
		a := d.ServiceTime(&Request{Run: Run{Start: 1000, N: int(n) + 1}})
		b := d.ServiceTime(&Request{Run: Run{Start: 1000, N: int(n) + 2}})
		return b > a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxQueueLenTracked(t *testing.T) {
	eng, d := newTestDisk(t)
	for i := 0; i < 5; i++ {
		d.Submit(&Request{Run: Run{Start: Slot(i * 10), N: 1}})
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

// TestDoneMayResubmit reuses one request from its own Done, as the VM
// reuses its transfer records: the disk reads nothing of a request once it
// calls Done, so each service is priced from the run it was submitted with.
func TestDoneMayResubmit(t *testing.T) {
	eng, d := newTestDisk(t)
	var svcs []sim.Duration
	r := &Request{Run: Run{Start: 0, N: 8}}
	r.Done = func(s sim.Duration) {
		svcs = append(svcs, s)
		if len(svcs) < 3 {
			r.Run = Run{Start: r.Run.End() + 100, N: 4}
			d.Submit(r)
		}
	}
	d.Submit(r)
	eng.Run()
	seek := 8*sim.Millisecond + 4*sim.Millisecond
	want := []sim.Duration{seek + 800*sim.Microsecond, seek + 400*sim.Microsecond, seek + 400*sim.Microsecond}
	if !slices.Equal(svcs, want) {
		t.Fatalf("services = %v, want %v", svcs, want)
	}
	if st := d.Stats(); st.Submitted != 3 || st.Completed != 3 || st.Seeks != 3 || st.PagesRead != 16 || d.Busy() {
		t.Fatalf("stats after three services: %+v, busy %v", st, d.Busy())
	}
}
