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

// buildAdmission wires two jobs with explicit WS hints on a node with the
// given frame count.
func buildAdmission(t *testing.T, frames, ws int, memoryAware bool) (*sim.Engine, *Scheduler, []*Job) {
	t.Helper()
	eng := sim.NewEngine(1)
	phys := mem.New(frames, 8, 16)
	d := disk.New(eng, disk.DefaultParams())
	v := vm.New(eng, phys, d, swap.New(1<<20), vm.Config{})
	k := core.NewKernel(eng, v, core.Orig, core.Config{})
	var sched *Scheduler
	jobs := make([]*Job, 2)
	for i := range jobs {
		pid := i + 1
		v.NewProcess(pid, ws)
		job := &Job{Name: string(rune('a' + i)), Quantum: 20 * sim.Millisecond, WSHintPages: ws}
		p := proc.New(eng, v, pid, proc.Behavior{
			FootprintPages: ws, Iterations: 100,
			Segments:  []proc.Segment{{Pages: ws, Write: true, Passes: 1}},
			TouchCost: 10 * sim.Microsecond,
		}, nil, func(*proc.Process) { sched.MemberFinished(job) })
		job.Members = []Member{{Proc: p, Kernel: k}}
		jobs[i] = job
	}
	sched = NewScheduler(eng, jobs, Options{MemoryAware: memoryAware}, nil)
	return eng, sched, jobs
}

func TestMemoryAwareRefusesOverCommit(t *testing.T) {
	// 2 x 600-page working sets on 1000 frames over-commit: the admission
	// controller must run the jobs serially (no switches).
	eng, sched, jobs := buildAdmission(t, 1000, 600, true)
	sched.Start()
	eng.Run()
	if !jobs[0].Done() || !jobs[1].Done() {
		t.Fatal("jobs unfinished")
	}
	if sched.Stats().Switches != 0 {
		t.Fatalf("admission control switched %d times on an over-committed pair",
			sched.Stats().Switches)
	}
	if jobs[1].FinishedAt() <= jobs[0].FinishedAt() {
		t.Fatal("serialised order violated")
	}
}

func TestMemoryAwareTimeSharesWhenItFits(t *testing.T) {
	// 2 x 400-page working sets fit 1000 frames together: normal gang
	// rotation must happen.
	eng, sched, jobs := buildAdmission(t, 1000, 400, true)
	sched.Start()
	eng.Run()
	if !jobs[0].Done() || !jobs[1].Done() {
		t.Fatal("jobs unfinished")
	}
	if sched.Stats().Switches == 0 {
		t.Fatal("fitting pair was serialised")
	}
}

func TestNonMemoryAwareAlwaysTimeShares(t *testing.T) {
	eng, sched, jobs := buildAdmission(t, 1000, 600, false)
	sched.Start()
	eng.Run()
	if !jobs[0].Done() || !jobs[1].Done() {
		t.Fatal("jobs unfinished")
	}
	if sched.Stats().Switches == 0 {
		t.Fatal("plain gang scheduler did not rotate")
	}
}
