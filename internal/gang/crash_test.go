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

// node is one machine of a hand-wired multi-node testbed.
type node struct {
	vm     *vm.VM
	dsk    *disk.Disk
	kernel *core.Kernel
}

// newNodes builds n nodes sharing one engine, each with two live processes
// (pids 1 and 2) so jobs a and b have a rank everywhere.
func newNodes(t *testing.T, eng *sim.Engine, n, frames, footprint int, features core.Features) []*node {
	t.Helper()
	nodes := make([]*node, n)
	for i := range nodes {
		phys := mem.New(frames, 8, 16)
		d := disk.New(eng, disk.DefaultParams())
		v := vm.New(eng, phys, d, swap.New(1<<20), vm.Config{})
		k := core.NewKernel(eng, v, features, core.Config{})
		for pid := 1; pid <= 2; pid++ {
			if _, err := v.NewProcess(pid, footprint); err != nil {
				t.Fatal(err)
			}
		}
		nodes[i] = &node{vm: v, dsk: d, kernel: k}
	}
	return nodes
}

// TestCrashResumeClearsStaleOutgoing is the regression test for the stale
// selective-outgoing bug: after a node crash the victim job is requeued and
// Resume dispatches the survivor with no outgoing job, so AdaptivePageOut
// never runs and the designation left by the LAST pre-crash switch survives
// on the nodes that did not crash. When that designation names the job now
// being dispatched, selective page-out steals frames from the running job
// while a stopped process' pages sit idle — the exact inversion §3.1 exists
// to prevent. switchTo must clear it.
func TestCrashResumeClearsStaleOutgoing(t *testing.T) {
	eng := sim.NewEngine(1)
	nodes := newNodes(t, eng, 2, 4096, 200, core.SO)

	var sched *Scheduler
	jobs := make([]*Job, 2)
	for jIdx := range jobs {
		pid := jIdx + 1
		job := &Job{Name: string(rune('a' + jIdx)), Quantum: 100 * sim.Millisecond}
		for _, nd := range nodes {
			beh := proc.Behavior{
				FootprintPages: 200,
				Iterations:     500,
				Segments:       []proc.Segment{{Offset: 0, Pages: 200, Write: true, Passes: 1}},
				TouchCost:      20 * sim.Microsecond,
			}
			j := job
			p := proc.New(eng, nd.vm, pid, beh, nil, func(*proc.Process) { sched.MemberFinished(j) })
			job.Members = append(job.Members, Member{Proc: p, Kernel: nd.kernel})
		}
		jobs[jIdx] = job
	}
	sched = NewScheduler(eng, jobs, Options{KeepFinishedMemory: true}, nil)
	sched.Start()

	// Two quantum expiries: a->b designates pid 1, then b->a designates
	// pid 2 on every node.
	eng.RunFor(150 * sim.Millisecond)
	for i, nd := range nodes {
		if got := nd.vm.Outgoing(); got != 1 {
			t.Fatalf("node %d: outgoing after a->b = %d, want 1", i, got)
		}
	}
	eng.RunFor(100 * sim.Millisecond)
	for i, nd := range nodes {
		if got := nd.vm.Outgoing(); got != 2 {
			t.Fatalf("node %d: outgoing after b->a = %d, want 2", i, got)
		}
	}

	// Crash node 1 while job a (pid 1) is running, in cluster.CrashNode
	// order. Job a is the victim and gets requeued; node 0 survives with
	// outgoing still = 2.
	victim := sched.Suspend()
	if victim != jobs[0] {
		t.Fatalf("crash victim = %v, want job a", victim)
	}
	nodes[1].kernel.CrashReset()
	nodes[1].vm.Crash()
	nodes[1].dsk.Reset()

	// Resume dispatches the survivor b (pid 2) from the rotation head with
	// no outgoing job. The stale designation on node 0 names pid 2 itself;
	// it must be cleared, not left to aim selective reclaim at the runner.
	sched.Resume()
	if running := sched.Running(); running != jobs[1] {
		t.Fatalf("running after resume = %v, want job b", running)
	}
	for i, nd := range nodes {
		if got := nd.vm.Outgoing(); got == 2 {
			t.Fatalf("node %d: stale outgoing designation still names the running pid 2", i)
		}
		if got := nd.vm.Outgoing(); got != 0 {
			t.Fatalf("node %d: outgoing after crash-resume = %d, want 0", i, got)
		}
	}

	// Liveness: the rotation still completes both jobs.
	eng.Run()
	for _, j := range jobs {
		if !j.Done() {
			t.Fatalf("job %s unfinished after crash-resume", j.Name)
		}
	}
}
