package proc

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/vm"
)

type rig struct {
	eng *sim.Engine
	vm  *vm.VM
}

func newRig(t testing.TB, frames int) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	phys := mem.New(frames, 8, 16)
	d := disk.New(eng, disk.DefaultParams())
	sp := swap.New(1 << 20)
	return &rig{eng, vm.New(eng, phys, d, sp, vm.Config{})}
}

func simpleBehavior(pages, iters int) Behavior {
	return Behavior{
		FootprintPages: pages,
		Iterations:     iters,
		Segments:       []Segment{{Offset: 0, Pages: pages, Write: true, Passes: 1}},
		TouchCost:      10 * sim.Microsecond,
	}
}

func TestBehaviorValidate(t *testing.T) {
	good := simpleBehavior(100, 3)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Behavior{
		{},
		{FootprintPages: 10, Iterations: 1, TouchCost: 1}, // no segments
		{FootprintPages: 10, Iterations: 0, TouchCost: 1, Segments: []Segment{{0, 10, false, 1}}},
		{FootprintPages: 10, Iterations: 1, TouchCost: 0, Segments: []Segment{{0, 10, false, 1}}},
		{FootprintPages: 10, Iterations: 1, TouchCost: 1, Segments: []Segment{{5, 10, false, 1}}}, // overruns
		{FootprintPages: 10, Iterations: 1, TouchCost: 1, Segments: []Segment{{0, 10, false, 0}}}, // 0 passes
		{FootprintPages: 10, Iterations: 1, TouchCost: 1, Segments: []Segment{{0, 10, false, 1}}, MsgBytes: -1},
		{FootprintPages: 10, Iterations: 1, TouchCost: 1, Segments: []Segment{{0, 10, false, 1}}, ComputePerIter: -1},
	}
	for i, b := range bads {
		if err := b.Validate(); err == nil {
			t.Errorf("bad behavior %d accepted", i)
		}
	}
}

func TestWorkingSetPages(t *testing.T) {
	b := Behavior{
		FootprintPages: 100, Iterations: 1, TouchCost: 1,
		Segments: []Segment{
			{Offset: 0, Pages: 50, Passes: 1},
			{Offset: 40, Pages: 20, Passes: 2}, // overlaps 40-49
			{Offset: 80, Pages: 10, Passes: 1},
		},
	}
	if ws := b.WorkingSetPages(); ws != 70 {
		t.Fatalf("WS = %d, want 70 (0-59 plus 80-89)", ws)
	}
	if n := b.TouchesPerIteration(); n != 50+40+10 {
		t.Fatalf("touches = %d", n)
	}
}

func TestProcessRunsToCompletion(t *testing.T) {
	r := newRig(t, 512)
	r.vm.NewProcess(1, 100)
	finished := false
	p := New(r.eng, r.vm, 1, simpleBehavior(100, 5), nil, func(*Process) { finished = true })
	p.Start()
	r.eng.Run()
	if !finished || !p.Done() {
		t.Fatal("process did not finish")
	}
	st := p.Stats()
	if st.IterationsDone != 5 {
		t.Fatalf("iterations = %d", st.IterationsDone)
	}
	// 5 iterations × 100 pages × 10 µs plus fault overheads.
	if st.ComputeTime != 5*100*10*sim.Microsecond {
		t.Fatalf("compute = %v", st.ComputeTime)
	}
	if st.FinishedAt <= st.StartedAt {
		t.Fatal("timestamps wrong")
	}
	// All pages were zero-filled exactly once.
	if r.vm.Stats().ZeroFills != 100 {
		t.Fatalf("zero fills = %d", r.vm.Stats().ZeroFills)
	}
}

func TestStopHaltsProgress(t *testing.T) {
	r := newRig(t, 512)
	r.vm.NewProcess(1, 100)
	p := New(r.eng, r.vm, 1, simpleBehavior(100, 50), nil, nil)
	p.Start()
	r.eng.RunFor(20 * sim.Millisecond)
	p.Stop()
	r.eng.RunFor(sim.Second)
	iterAtStop := p.Stats().IterationsDone
	r.eng.RunFor(10 * sim.Second)
	if p.Stats().IterationsDone != iterAtStop {
		t.Fatal("process advanced while stopped")
	}
	if p.Done() {
		t.Fatal("cannot be done")
	}
	p.Start()
	r.eng.Run()
	if !p.Done() {
		t.Fatal("did not finish after restart")
	}
}

func TestStopDuringFaultResumesOnStart(t *testing.T) {
	r := newRig(t, 64) // tight memory: constant faulting
	r.vm.NewProcess(1, 200)
	p := New(r.eng, r.vm, 1, simpleBehavior(200, 3), nil, nil)
	p.Start()
	// Stop almost immediately — likely mid-fault.
	r.eng.RunFor(100 * sim.Microsecond)
	p.Stop()
	r.eng.RunFor(sim.Second) // fault completes while stopped
	cursorIter := p.Stats().IterationsDone
	r.eng.RunFor(sim.Second)
	if p.Stats().IterationsDone != cursorIter {
		t.Fatal("advanced while stopped")
	}
	p.Start()
	r.eng.Run()
	if !p.Done() {
		t.Fatal("did not complete")
	}
	if err := r.vm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleStartIsNoop(t *testing.T) {
	r := newRig(t, 512)
	r.vm.NewProcess(1, 50)
	p := New(r.eng, r.vm, 1, simpleBehavior(50, 2), nil, nil)
	p.Start()
	p.Start() // must not double-schedule
	r.eng.Run()
	if !p.Done() {
		t.Fatal("did not finish")
	}
	if p.Stats().IterationsDone != 2 {
		t.Fatalf("iterations = %d", p.Stats().IterationsDone)
	}
	p.Start() // after done: no-op
	r.eng.Run()
}

func TestMultiSegmentDirtyRatio(t *testing.T) {
	r := newRig(t, 1024)
	r.vm.NewProcess(1, 100)
	beh := Behavior{
		FootprintPages: 100,
		Iterations:     1,
		Segments: []Segment{
			{Offset: 0, Pages: 60, Write: false, Passes: 1}, // read-only matrix
			{Offset: 60, Pages: 40, Write: true, Passes: 2}, // written vectors
		},
		TouchCost: 5 * sim.Microsecond,
	}
	p := New(r.eng, r.vm, 1, beh, nil, nil)
	p.Start()
	r.eng.Run()
	if !p.Done() {
		t.Fatal("not done")
	}
	if d := r.vm.DirtyPages(1); d != 40 {
		t.Fatalf("dirty = %d, want only the written segment", d)
	}
	if got := p.Stats().ComputeTime; got != (60+80)*5*sim.Microsecond {
		t.Fatalf("compute = %v", got)
	}
}

func TestChunkingBoundsComputeEvents(t *testing.T) {
	r := newRig(t, 2048)
	r.vm.NewProcess(1, 1000)
	p := New(r.eng, r.vm, 1, simpleBehavior(1000, 1), nil, nil)
	p.ChunkPages = 100
	p.Start()
	r.eng.Run()
	if !p.Done() {
		t.Fatal("not done")
	}
	// With everything faulting once (zero-fill) events dominate; just check
	// correctness of the result.
	if p.Stats().ComputeTime != 1000*10*sim.Microsecond {
		t.Fatalf("compute = %v", p.Stats().ComputeTime)
	}
}

func TestParallelRanksBarrierEachIteration(t *testing.T) {
	// Two ranks on separate nodes sharing one barrier: the faster node must
	// wait for the slower one each iteration.
	eng := sim.NewEngine(1)
	net := mpi.DefaultNetwork(eng)
	bar := mpi.NewBarrier(net, 2)
	mkNode := func(frames int) *vm.VM {
		phys := mem.New(frames, 8, 16)
		d := disk.New(eng, disk.DefaultParams())
		return vm.New(eng, phys, d, swap.New(1<<20), vm.Config{})
	}
	fast, slow := mkNode(1024), mkNode(96) // slow node pages heavily
	fast.NewProcess(1, 300)
	slow.NewProcess(1, 300)
	beh := simpleBehavior(300, 4)
	beh.SyncEveryIter = true
	beh.MsgBytes = 1000
	var doneCount int
	pf := New(eng, fast, 1, beh, bar, func(*Process) { doneCount++ })
	ps := New(eng, slow, 1, beh, bar, func(*Process) { doneCount++ })
	pf.Start()
	ps.Start()
	eng.Run()
	if doneCount != 2 {
		t.Fatalf("done = %d", doneCount)
	}
	// The fast rank's wall time must be stretched to the slow rank's.
	if bar.WaitTime() <= 0 {
		t.Fatal("no barrier waiting recorded")
	}
	dFast := pf.Stats().FinishedAt
	dSlow := ps.Stats().FinishedAt
	diff := dFast.Sub(dSlow)
	if diff < 0 {
		diff = -diff
	}
	if diff > sim.Duration(10*sim.Millisecond) {
		t.Fatalf("ranks finished %v apart; barrier coupling broken", diff)
	}
}

func TestComputePerIterCharged(t *testing.T) {
	r := newRig(t, 512)
	r.vm.NewProcess(1, 10)
	beh := simpleBehavior(10, 3)
	beh.ComputePerIter = 50 * sim.Millisecond
	p := New(r.eng, r.vm, 1, beh, nil, nil)
	p.Start()
	r.eng.Run()
	want := 3*50*sim.Millisecond + 3*10*10*sim.Microsecond
	if p.Stats().ComputeTime != want {
		t.Fatalf("compute = %v, want %v", p.Stats().ComputeTime, want)
	}
	if r.eng.Now() < sim.Time(150*sim.Millisecond) {
		t.Fatalf("wall = %v too fast", r.eng.Now())
	}
}

func TestConstructorValidation(t *testing.T) {
	r := newRig(t, 64)
	r.vm.NewProcess(1, 10)
	for _, f := range []func(){
		func() { New(r.eng, r.vm, 2, simpleBehavior(10, 1), nil, nil) }, // no AS
		func() { New(r.eng, r.vm, 1, simpleBehavior(20, 1), nil, nil) }, // footprint > AS
		func() { New(r.eng, r.vm, 1, Behavior{}, nil, nil) },            // invalid behavior
		func() { // SyncEveryIter without barrier
			b := simpleBehavior(10, 1)
			b.SyncEveryIter = true
			New(r.eng, r.vm, 1, b, nil, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMemoryPressureSlowsCompletion(t *testing.T) {
	// The same behavior under tight memory must take longer than with
	// ample memory — sanity for the whole stack (Moreira et al. motivation).
	run := func(frames int) sim.Time {
		r := newRig(t, frames)
		r.vm.NewProcess(1, 400)
		p := New(r.eng, r.vm, 1, simpleBehavior(400, 5), nil, nil)
		p.Start()
		r.eng.Run()
		if !p.Done() {
			t.Fatal("not done")
		}
		return p.Stats().FinishedAt
	}
	ample := run(1024)
	tight := run(128)
	if tight < 2*ample {
		t.Fatalf("tight memory (%v) not >> ample (%v)", tight, ample)
	}
}

// stoppedRun is what runStoppedBetweenRunFor leaves behind.
type stoppedRun struct {
	stats   Stats
	iter    int
	vm      vm.Stats
	dirty   int
	drained sim.Time
}

// runStoppedBetweenRunFor runs a 20,000-page writer for 500 ms, stops it
// between RunFor calls and drains the engine: the chunk in flight at the
// stop completes and the process idles. With blocked set, a no-op event
// fires every microsecond until the stop, so no touch window absorbs a
// chunk: the one-event-per-chunk schedule.
func runStoppedBetweenRunFor(t *testing.T, blocked bool) stoppedRun {
	const pages = 20000
	r := newRig(t, pages+64)
	r.vm.NewProcess(1, pages)
	p := New(r.eng, r.vm, 1, simpleBehavior(pages, 10), nil, nil)
	stop := sim.Time(0).Add(500 * sim.Millisecond)
	if blocked {
		var tick func()
		tick = func() {
			if r.eng.Now() < stop {
				r.eng.ScheduleDetached(sim.Microsecond, tick)
			}
		}
		r.eng.ScheduleDetached(0, tick)
	}
	p.Start()
	r.eng.RunFor(500 * sim.Millisecond)
	p.Stop()
	r.eng.Run()
	if p.Done() {
		t.Fatalf("blocked=%v: finished before the stop", blocked)
	}
	st := p.Stats()
	if blocked && st.SkippedIterations != 0 {
		t.Fatalf("blocked run skipped %d iterations", st.SkippedIterations)
	}
	st.SkippedIterations = 0
	return stoppedRun{st, p.Iteration(), r.vm.Stats(), r.vm.DirtyPages(1), r.eng.Now()}
}

// TestStopBetweenRunForMatchesBlocked pins the caller's stop as a bound
// of every touch window: a caller that stops the process between RunFor
// calls finds it where the one-event-per-chunk schedule leaves it, with
// the same compute time, iteration and page state.
func TestStopBetweenRunForMatchesBlocked(t *testing.T) {
	free, blocked := runStoppedBetweenRunFor(t, false), runStoppedBetweenRunFor(t, true)
	if free != blocked {
		t.Fatalf("stopped between RunFor calls:\nfolded   %+v\nunfolded %+v", free, blocked)
	}
	t.Logf("%+v", free)
}
