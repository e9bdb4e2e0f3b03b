package vm

import (
	"math/rand"
	"testing"

	"repro/internal/disk"
)

// TestRandomOperationSoak drives the full VM surface with a deterministic
// pseudo-random operation mix — touches, faults, prefetches, reclaims,
// write-backs, policy flips, process churn — validating frame conservation
// and the page-state bookkeeping after every step. This is the failure-injection
// backstop for invariants no single-scenario test covers.
func TestRandomOperationSoak(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	r := newRig(t, 512, 8, 24, Config{ReadAhead: 8})

	type ps struct {
		pid   int
		pages int
	}
	var procs []ps
	nextPID := 1
	pending := map[int]int{} // fault/prefetch completions pending per pid

	newProc := func() {
		pages := 32 + rng.Intn(512)
		if _, err := r.vm.NewProcess(nextPID, pages); err != nil {
			return // swap space exhausted is fine
		}
		procs = append(procs, ps{nextPID, pages})
		nextPID++
	}
	newProc()

	for step := 0; step < 4000; step++ {
		if len(procs) == 0 {
			newProc()
			continue
		}
		p := procs[rng.Intn(len(procs))]
		switch rng.Intn(12) {
		case 0: // create
			if len(procs) < 6 {
				newProc()
			}
		case 1: // destroy (a destroyed process's dropped fault waiters are
			// by design never resumed, so forget its pending count)
			if len(procs) > 1 && rng.Intn(4) == 0 {
				r.vm.DestroyProcess(p.pid)
				delete(pending, p.pid)
				for i, q := range procs {
					if q.pid == p.pid {
						procs = append(procs[:i], procs[i+1:]...)
						break
					}
				}
			}
		case 2, 3, 4: // touch a run (fault if needed)
			vp := rng.Intn(p.pages)
			if run := r.vm.ResidentRun(p.pid, vp, 16); run > 0 {
				r.vm.TouchResident(p.pid, vp, run, rng.Intn(2) == 0)
			} else {
				pid := p.pid
				pending[pid]++
				r.vm.Fault(r.vm.Process(pid), vp, rng.Intn(2) == 0, func() { pending[pid]-- })
			}
		case 5: // prefetch a random window
			lo := rng.Intn(p.pages)
			hi := lo + rng.Intn(64)
			if hi > p.pages {
				hi = p.pages
			}
			var pages []int
			for v := lo; v < hi; v++ {
				pages = append(pages, v)
			}
			if len(pages) > 0 {
				pid := p.pid
				pending[pid]++
				r.vm.ReadPagesIn(pid, pages, disk.Demand, func() { pending[pid]-- })
			}
		case 6: // reclaim
			r.vm.Reclaim(1 + rng.Intn(64))
		case 7: // targeted eviction
			r.vm.ReclaimFrom(p.pid, 1+rng.Intn(32))
		case 8: // background write-back
			r.vm.WriteBackDirty(p.pid, 1+rng.Intn(32), disk.Background)
		case 9: // policy flip
			if rng.Intn(2) == 0 {
				r.vm.SetVictimPolicy(PolicySelective)
				r.vm.SetOutgoing(p.pid)
			} else {
				r.vm.SetVictimPolicy(PolicyDefault)
				r.vm.SetOutgoing(0)
			}
		case 10: // quantum roll
			r.vm.BeginQuantum(p.pid)
			_ = r.vm.WSEstimate(p.pid)
		case 11: // drain some or all pending events
			if rng.Intn(2) == 0 {
				r.eng.RunFor(1000) // 1 ms
			} else {
				r.eng.Run()
			}
		}
		if err := r.vm.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	r.eng.Run()
	for pid, n := range pending {
		if n != 0 && r.vm.Process(pid) != nil {
			t.Fatalf("pid %d: %d fault/prefetch callbacks never fired", pid, n)
		}
	}
	if err := r.vm.Validate(); err != nil {
		t.Fatal(err)
	}
}
