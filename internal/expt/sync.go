package expt

import (
	"repro/internal/core"
	"repro/internal/gang"
	"repro/internal/workload"
)

// SyncRow is one policy's synchronization outcome on the jittered
// parallel workload.
type SyncRow struct {
	Policy         string
	MakespanSec    float64
	BarrierWaitSec float64 // cumulative rank-time at barriers, both jobs
}

// SyncStudy measures the claim in §2 and §4.2 that making paging "occur
// simultaneously over all nodes ... facilitates the synchronization of
// computation among parallel nodes": two LU class C jobs on four machines
// whose ranks have ±10% per-iteration compute jitter. Under the original
// policy each node pages on its own schedule and every straggler holds the
// whole gang at the barrier; the adaptive mechanisms compact paging into
// the same instant on every node.
func SyncStudy(cfg Config) ([]SyncRow, error) {
	cfg.fillDefaults()
	m := workload.MustGet(workload.LU, workload.ClassC, 4)
	policies := []core.Features{core.Orig, core.SOAOAIBG}
	return mapN(cfg, len(policies), func(i int) (SyncRow, error) {
		s := cfg.pair(m, policies[i], gang.Gang)
		s.study = "sync study"
		for j := range s.jobs {
			s.jobs[j].Behavior.Jitter = 0.10
		}
		res, err := cfg.run(s)
		if err != nil {
			return SyncRow{}, err
		}
		var wait float64
		for _, j := range res.Jobs {
			wait += j.BarrierWait.Seconds()
		}
		return SyncRow{
			Policy:         res.Policy,
			MakespanSec:    res.Makespan.Seconds(),
			BarrierWaitSec: wait,
		}, nil
	})
}
