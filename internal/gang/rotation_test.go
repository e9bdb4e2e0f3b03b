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

// buildN wires n equal jobs on one node by hand.
func buildN(t *testing.T, n, frames, footprint, iters int, quantum sim.Duration) (*sim.Engine, *Scheduler, []*Job) {
	t.Helper()
	eng := sim.NewEngine(1)
	phys := mem.New(frames, 8, 16)
	d := disk.New(eng, disk.DefaultParams())
	v := vm.New(eng, phys, d, swap.New(1<<20), vm.Config{})
	k := core.NewKernel(eng, v, core.SOAOAIBG, core.Config{})
	var sched *Scheduler
	jobs := make([]*Job, n)
	for i := 0; i < n; i++ {
		pid := i + 1
		if _, err := v.NewProcess(pid, footprint); err != nil {
			t.Fatal(err)
		}
		job := &Job{Name: string(rune('a' + i)), Quantum: quantum, WSHintPages: footprint}
		p := proc.New(eng, v, pid, proc.Behavior{
			FootprintPages: footprint, Iterations: iters,
			Segments:  []proc.Segment{{Pages: footprint, Write: true, Passes: 1}},
			TouchCost: 20 * sim.Microsecond,
		}, nil, func(*proc.Process) { sched.MemberFinished(job) })
		job.Members = []Member{{Proc: p, Kernel: k}}
		jobs[i] = job
	}
	sched = NewScheduler(eng, jobs, Options{}, nil)
	return eng, sched, jobs
}

func TestThreeJobRoundRobin(t *testing.T) {
	eng, sched, jobs := buildN(t, 3, 4096, 400, 200, 50*sim.Millisecond)
	sched.Start()
	// Observe the rotation across the first four quanta: a, b, c, a.
	order := []int{}
	for q := 0; q < 4; q++ {
		for i, j := range jobs {
			if j.Members[0].Proc.Running() {
				order = append(order, i)
			}
		}
		eng.RunFor(50 * sim.Millisecond)
	}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", order, want)
		}
	}
	eng.Run()
	for _, j := range jobs {
		if !j.Done() {
			t.Fatalf("job %s unfinished", j.Name)
		}
	}
}

func TestThreeJobsUnderMemoryPressureAllFinish(t *testing.T) {
	// Three 700-page jobs on 1280 frames: only one fits comfortably at a
	// time; the rotation must still complete all of them.
	eng, sched, jobs := buildN(t, 3, 1280, 700, 120, 100*sim.Millisecond)
	sched.Start()
	eng.Run()
	for _, j := range jobs {
		if !j.Done() {
			t.Fatalf("job %s wedged", j.Name)
		}
	}
	if sched.Stats().Switches < 3 {
		t.Fatalf("switches = %d", sched.Stats().Switches)
	}
}

func TestHeterogeneousQuanta(t *testing.T) {
	// Job b gets a quantum 3x job a's (the paper gives SP a 7-minute
	// quantum while others get 5).
	eng := sim.NewEngine(1)
	phys := mem.New(4096, 8, 16)
	d := disk.New(eng, disk.DefaultParams())
	v := vm.New(eng, phys, d, swap.New(1<<20), vm.Config{})
	k := core.NewKernel(eng, v, core.Orig, core.Config{})
	var sched *Scheduler
	mk := func(pid int, name string, q sim.Duration) *Job {
		v.NewProcess(pid, 200)
		job := &Job{Name: name, Quantum: q}
		p := proc.New(eng, v, pid, proc.Behavior{
			FootprintPages: 200, Iterations: 10000,
			Segments:  []proc.Segment{{Pages: 200, Write: true, Passes: 1}},
			TouchCost: 20 * sim.Microsecond,
		}, nil, func(*proc.Process) { sched.MemberFinished(job) })
		job.Members = []Member{{Proc: p, Kernel: k}}
		return job
	}
	a := mk(1, "a", 20*sim.Millisecond)
	b := mk(2, "b", 60*sim.Millisecond)
	sched = NewScheduler(eng, []*Job{a, b}, Options{}, nil)
	sched.Start()
	// One full rotation: a runs 20ms, b runs 60ms.
	eng.RunFor(10 * sim.Millisecond)
	if !a.Members[0].Proc.Running() {
		t.Fatal("a should run first")
	}
	eng.RunFor(20 * sim.Millisecond) // t=30ms: inside b's quantum
	if !b.Members[0].Proc.Running() {
		t.Fatal("b should be running after a's 20ms quantum")
	}
	eng.RunFor(40 * sim.Millisecond) // t=70ms: still b (quantum ends at 80ms)
	if !b.Members[0].Proc.Running() {
		t.Fatal("b preempted before its longer quantum expired")
	}
	eng.RunFor(20 * sim.Millisecond) // t=90ms: back to a
	if !a.Members[0].Proc.Running() {
		t.Fatal("rotation did not return to a")
	}
}

func TestJobsOfDifferentSizesShareFairly(t *testing.T) {
	// A small and a large job rotate; both finish, and the small one first
	// (same quantum, less total work).
	eng := sim.NewEngine(1)
	phys := mem.New(4096, 8, 16)
	d := disk.New(eng, disk.DefaultParams())
	v := vm.New(eng, phys, d, swap.New(1<<20), vm.Config{})
	k := core.NewKernel(eng, v, core.SOAOAIBG, core.Config{})
	var sched *Scheduler
	mk := func(pid, footprint, iters int, name string) *Job {
		v.NewProcess(pid, footprint)
		job := &Job{Name: name, Quantum: 50 * sim.Millisecond}
		p := proc.New(eng, v, pid, proc.Behavior{
			FootprintPages: footprint, Iterations: iters,
			Segments:  []proc.Segment{{Pages: footprint, Write: true, Passes: 1}},
			TouchCost: 20 * sim.Microsecond,
		}, nil, func(*proc.Process) { sched.MemberFinished(job) })
		job.Members = []Member{{Proc: p, Kernel: k}}
		return job
	}
	small := mk(1, 200, 50, "small")
	large := mk(2, 2000, 100, "large")
	sched = NewScheduler(eng, []*Job{small, large}, Options{}, nil)
	sched.Start()
	eng.Run()
	if !small.Done() || !large.Done() {
		t.Fatal("unfinished jobs")
	}
	if small.FinishedAt() >= large.FinishedAt() {
		t.Fatal("small job should finish first under fair rotation")
	}
}
