package gang

import (
	"testing"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/mem"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/vm"
)

// testbed wires one node with two jobs by hand (the cluster package has its
// own end-to-end tests; these exercise scheduler logic in isolation).
type testbed struct {
	eng    *sim.Engine
	vm     *vm.VM
	kernel *core.Kernel
	sched  *Scheduler
	jobs   []*Job
}

func newTestbed(t *testing.T, frames int, features core.Features, footprints []int, iters int, quantum sim.Duration, opts Options) *testbed {
	t.Helper()
	eng := sim.NewEngine(1)
	phys := mem.New(frames, 8, 16)
	d := disk.New(eng, disk.DefaultParams())
	v := vm.New(eng, phys, d, swap.New(1<<20), vm.Config{})
	k := core.NewKernel(eng, v, features, core.Config{})
	tb := &testbed{eng: eng, vm: v, kernel: k}
	for i, fp := range footprints {
		pid := i + 1
		if _, err := v.NewProcess(pid, fp); err != nil {
			t.Fatal(err)
		}
		job := &Job{Name: string(rune('a' + i)), Quantum: quantum}
		beh := proc.Behavior{
			FootprintPages: fp,
			Iterations:     iters,
			Segments:       []proc.Segment{{Offset: 0, Pages: fp, Write: true, Passes: 1}},
			TouchCost:      20 * sim.Microsecond,
		}
		p := proc.New(eng, v, pid, beh, nil, func(*proc.Process) { tb.sched.MemberFinished(job) })
		job.Members = []Member{{Proc: p, Kernel: k}}
		tb.jobs = append(tb.jobs, job)
	}
	tb.sched = NewScheduler(eng, tb.jobs, opts, nil)
	return tb
}

func TestRoundRobinRotation(t *testing.T) {
	tb := newTestbed(t, 4096, core.Orig, []int{500, 500}, 200, 100*sim.Millisecond, Options{})
	tb.sched.Start()
	// After start, job a runs, job b does not.
	if !tb.jobs[0].Members[0].Proc.Running() || tb.jobs[1].Members[0].Proc.Running() {
		t.Fatal("initial dispatch wrong")
	}
	if !tb.jobs[0].Started() || tb.jobs[1].Started() {
		t.Fatal("Started flags wrong")
	}
	tb.eng.RunFor(150 * sim.Millisecond) // past one quantum
	if tb.jobs[0].Members[0].Proc.Running() || !tb.jobs[1].Members[0].Proc.Running() {
		t.Fatal("first switch did not rotate")
	}
	if tb.sched.Stats().Switches != 1 {
		t.Fatalf("switches = %d", tb.sched.Stats().Switches)
	}
	tb.eng.RunFor(100 * sim.Millisecond)
	if !tb.jobs[0].Members[0].Proc.Running() {
		t.Fatal("rotation did not come back around")
	}
}

func TestBothJobsComplete(t *testing.T) {
	tb := newTestbed(t, 4096, core.Orig, []int{500, 500}, 50, 100*sim.Millisecond, Options{})
	tb.sched.Start()
	tb.eng.Run()
	for _, j := range tb.jobs {
		if !j.Done() {
			t.Fatalf("job %s unfinished", j.Name)
		}
	}
	if tb.sched.Stats().LastFinish == 0 {
		t.Fatal("LastFinish not recorded")
	}
}

func TestOnAllDoneCallback(t *testing.T) {
	eng := sim.NewEngine(1)
	phys := mem.New(2048, 8, 16)
	d := disk.New(eng, disk.DefaultParams())
	v := vm.New(eng, phys, d, swap.New(1<<20), vm.Config{})
	k := core.NewKernel(eng, v, core.Orig, core.Config{})
	v.NewProcess(1, 100)
	job := &Job{Name: "solo", Quantum: sim.Second}
	var sched *Scheduler
	p := proc.New(eng, v, 1, proc.Behavior{
		FootprintPages: 100, Iterations: 2,
		Segments:  []proc.Segment{{Pages: 100, Write: true, Passes: 1}},
		TouchCost: 10 * sim.Microsecond,
	}, nil, func(*proc.Process) { sched.MemberFinished(job) })
	job.Members = []Member{{Proc: p, Kernel: k}}
	fired := false
	sched = NewScheduler(eng, []*Job{job}, Options{}, func() { fired = true })
	sched.Start()
	eng.Run()
	if !fired {
		t.Fatal("onAllDone never fired")
	}
}

func TestFinishedJobLeavesRotation(t *testing.T) {
	// Job a is much shorter than b; once a completes, b must run without
	// further switches. Built by hand because the jobs differ in length.
	eng := sim.NewEngine(1)
	phys := mem.New(4096, 8, 16)
	d := disk.New(eng, disk.DefaultParams())
	v := vm.New(eng, phys, d, swap.New(1<<20), vm.Config{})
	k := core.NewKernel(eng, v, core.Orig, core.Config{})
	var sched *Scheduler
	mkJob := func(pid, iters int, name string) *Job {
		v.NewProcess(pid, 300)
		job := &Job{Name: name, Quantum: 50 * sim.Millisecond}
		p := proc.New(eng, v, pid, proc.Behavior{
			FootprintPages: 300, Iterations: iters,
			Segments:  []proc.Segment{{Pages: 300, Write: true, Passes: 1}},
			TouchCost: 20 * sim.Microsecond,
		}, nil, func(*proc.Process) { sched.MemberFinished(job) })
		job.Members = []Member{{Proc: p, Kernel: k}}
		return job
	}
	short := mkJob(1, 3, "short")
	long := mkJob(2, 400, "long")
	sched = NewScheduler(eng, []*Job{short, long}, Options{}, nil)
	sched.Start()
	eng.Run()
	if !short.Done() || !long.Done() {
		t.Fatal("jobs unfinished")
	}
	if short.FinishedAt() >= long.FinishedAt() {
		t.Fatal("short job should finish first")
	}
	// Short job's memory was destroyed on completion.
	if v.Process(1) != nil {
		t.Fatal("finished job's address space not destroyed")
	}
	if v.Process(2) != nil {
		t.Fatal("long job's address space not destroyed after completion")
	}
}

func TestKeepFinishedMemoryOption(t *testing.T) {
	eng := sim.NewEngine(1)
	phys := mem.New(2048, 8, 16)
	d := disk.New(eng, disk.DefaultParams())
	v := vm.New(eng, phys, d, swap.New(1<<20), vm.Config{})
	k := core.NewKernel(eng, v, core.Orig, core.Config{})
	v.NewProcess(1, 100)
	job := &Job{Name: "solo", Quantum: sim.Second}
	var sched *Scheduler
	p := proc.New(eng, v, 1, proc.Behavior{
		FootprintPages: 100, Iterations: 1,
		Segments:  []proc.Segment{{Pages: 100, Write: true, Passes: 1}},
		TouchCost: 10 * sim.Microsecond,
	}, nil, func(*proc.Process) { sched.MemberFinished(job) })
	job.Members = []Member{{Proc: p, Kernel: k}}
	sched = NewScheduler(eng, []*Job{job}, Options{KeepFinishedMemory: true}, nil)
	sched.Start()
	eng.Run()
	if v.Process(1) == nil {
		t.Fatal("KeepFinishedMemory ignored")
	}
}

func TestBGWriterStartsInQuantumTail(t *testing.T) {
	tb := newTestbed(t, 4096, core.SOAOBG, []int{1000, 1000}, 500, 200*sim.Millisecond, Options{BGWriteFraction: 0.25})
	tb.sched.Start()
	// Before the tail: inactive.
	tb.eng.RunFor(100 * sim.Millisecond)
	if _, on := tb.kernel.BGWriteActive(); on {
		t.Fatal("bg writer active too early")
	}
	// Inside the tail (after 150 ms of the 200 ms quantum): active for the
	// running job.
	tb.eng.RunFor(60 * sim.Millisecond)
	if pid, on := tb.kernel.BGWriteActive(); !on || pid != 1 {
		t.Fatalf("bg writer pid=%d on=%v in quantum tail", pid, on)
	}
	// After the switch: stopped (and restarted later for the other job).
	tb.eng.RunFor(45 * sim.Millisecond) // t=205ms, just past switch
	if pid, _ := tb.kernel.BGWriteActive(); pid == 1 {
		t.Fatal("bg writer survived the switch")
	}
}

func TestSchedulerValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	for _, f := range []func(){
		func() { NewScheduler(eng, nil, Options{}, nil) },
		func() { NewScheduler(eng, []*Job{{}}, Options{}, nil) },                              // invalid job
		func() { NewScheduler(eng, []*Job{{Name: "x", Quantum: 1}}, Options{}, nil) },         // no members
		func() { NewScheduler(eng, []*Job{{Name: "x"}}, Options{BGWriteFraction: 1.5}, nil) }, // bad fraction
		func() { NewScheduler(eng, []*Job{{Name: "x", Quantum: -1}}, Options{}, nil) },        // bad quantum
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

func TestDoubleStartPanics(t *testing.T) {
	tb := newTestbed(t, 4096, core.Orig, []int{100}, 1, sim.Second, Options{})
	tb.sched.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tb.sched.Start()
}

func TestModeString(t *testing.T) {
	if Gang.String() != "gang" || Batch.String() != "batch" {
		t.Fatal("mode strings")
	}
}

func TestQuantaServedCounts(t *testing.T) {
	tb := newTestbed(t, 4096, core.Orig, []int{400, 400}, 100, 100*sim.Millisecond, Options{})
	tb.sched.Start()
	tb.eng.Run()
	st := tb.sched.Stats()
	if st.QuantaServed <= st.Switches {
		t.Fatalf("quanta %d vs switches %d inconsistent", st.QuantaServed, st.Switches)
	}
}

func TestAdaptiveCallsHappenAtSwitch(t *testing.T) {
	tb := newTestbed(t, 1200, core.SOAOAIBG, []int{800, 800}, 300, 200*sim.Millisecond, Options{})
	tb.jobs[0].WSHintPages = 800
	tb.jobs[1].WSHintPages = 800
	tb.sched.Start()
	tb.eng.RunFor(500 * sim.Millisecond) // a couple of switches
	ks := tb.kernel.Stats()
	if ks.SwitchEvictions == 0 {
		t.Fatal("aggressive page-out never ran at a switch")
	}
	if ks.RecordedPages == 0 {
		t.Fatal("adaptive page-in recorder captured nothing")
	}
}
