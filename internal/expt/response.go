package expt

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gang"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ResponseRow is one scheduler's outcome on the mixed workload.
type ResponseRow struct {
	Scheduler    string
	ShortJobSec  float64 // completion of the short interactive-ish job
	LongJobSec   float64 // completion of the long job
	MeanSec      float64
	PagesMovedGB float64
}

// MixedWorkloadStudy reproduces the paper's motivation (§1): gang
// scheduling exists to give good response to a short job that shares the
// machine with a long-running one, and adaptive paging makes that
// affordable under memory over-commitment. Four schedulers run the same
// pair — a long LU-like job and a short job one tenth its length:
//
//   - batch: short waits for long — worst response,
//   - memory-aware admission control (Batat & Feitelson, §5's related
//     work): refuses to time-share over-committed jobs, so it degenerates
//     to batch here,
//   - gang + original paging: good response, heavy paging tax,
//   - gang + so/ao/ai/bg: good response at a fraction of the tax.
func MixedWorkloadStudy(cfg Config) ([]ResponseRow, error) {
	cfg.fillDefaults()
	longBeh := workload.Model{
		App: "LONG", Class: "-", Ranks: 1,
		FootprintMB: 190, AvailMB: 238,
		Iterations: 250, TouchCost: 70 * sim.Microsecond, DirtyFrac: 0.65,
	}
	shortBeh := workload.Model{
		App: "SHORT", Class: "-", Ranks: 1,
		FootprintMB: 150, AvailMB: 238,
		Iterations: 40, TouchCost: 45 * sim.Microsecond, DirtyFrac: 0.7,
	}

	type schedCfg struct {
		name        string
		features    core.Features
		mode        gang.Mode
		memoryAware bool
	}
	scheds := []schedCfg{
		{"batch", core.Orig, gang.Batch, false},
		{"admission-control", core.Orig, gang.Gang, true},
		{"gang+orig", core.Orig, gang.Gang, false},
		{"gang+so/ao/ai/bg", core.SOAOAIBG, gang.Gang, false},
	}
	specs := make([]runSpec, len(scheds))
	for i, sc := range scheds {
		s := runSpec{
			study: "mixed workload", label: sc.name,
			nodes: 1, node: cluster.DefaultNodeConfig(), features: sc.features,
			sched: gang.Options{
				Mode:            sc.mode,
				BGWriteFraction: cfg.BGWriteFraction,
				MemoryAware:     sc.memoryAware,
			},
		}
		s.node.LockedMB = s.node.MemoryMB - longBeh.AvailMB
		// The long job is already running; the short job shares the node.
		s.jobs = []cluster.JobSpec{
			{Name: "long", Behavior: longBeh.Behavior(), Quantum: cfg.Quantum, PassWSHint: true},
			{Name: "short", Behavior: shortBeh.Behavior(), Quantum: cfg.Quantum, PassWSHint: true},
		}
		specs[i] = s
	}
	results, err := cfg.runAll(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]ResponseRow, len(results))
	for i, res := range results {
		short, _ := res.CompletionOf("short")
		long, _ := res.CompletionOf("long")
		rows[i] = ResponseRow{
			Scheduler:    res.Policy,
			ShortJobSec:  short.Seconds(),
			LongJobSec:   long.Seconds(),
			MeanSec:      res.MeanCompletion().Seconds(),
			PagesMovedGB: float64(res.TotalPagesMoved()) * 4096 / (1 << 30),
		}
	}
	return rows, nil
}
