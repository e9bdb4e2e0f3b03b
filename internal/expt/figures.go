package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gang"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ---------------------------------------------------------------- Figure 7

// Figure7 reproduces the serial experiment: two instances of each class B
// benchmark gang-scheduled on one machine with five-minute quanta, versus
// batch and versus the original policy (Figure 7 a-c).
func Figure7(cfg Config) ([]AppResult, error) {
	cfg.fillDefaults()
	models := make([]workload.Model, 0, len(workload.Apps()))
	for _, app := range workload.Apps() {
		m, err := workload.Get(app, workload.ClassB, 1)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	return cfg.compareAll(models)
}

// ---------------------------------------------------------------- Figure 8

// Figure8Models lists the (app, class) pairs the paper runs at each node
// count: SP only compiles for 4 machines, MG's memory only suits 2.
func Figure8Models(ranks int) ([]workload.Model, error) {
	switch ranks {
	case 2:
		return []workload.Model{
			workload.MustGet(workload.LU, workload.ClassC, 2),
			workload.MustGet(workload.CG, workload.ClassB, 2),
			workload.MustGet(workload.IS, workload.ClassB, 2),
			workload.MustGet(workload.MG, workload.ClassB, 2),
		}, nil
	case 4:
		return []workload.Model{
			workload.MustGet(workload.LU, workload.ClassC, 4),
			workload.MustGet(workload.SP, workload.ClassC, 4),
			workload.MustGet(workload.CG, workload.ClassB, 4),
			workload.MustGet(workload.IS, workload.ClassB, 4),
		}, nil
	default:
		return nil, fmt.Errorf("expt: Figure 8 ran on 2 or 4 machines, not %d", ranks)
	}
}

// Figure8 reproduces the parallel experiment on the given machine count
// (Figure 8 a-c for two machines, d-f for four).
func Figure8(cfg Config, ranks int) ([]AppResult, error) {
	cfg.fillDefaults()
	models, err := Figure8Models(ranks)
	if err != nil {
		return nil, err
	}
	return cfg.compareAll(models)
}

// ---------------------------------------------------------------- Figure 9

// PolicyResult is one bar of Figure 9: one mechanism combination on one
// LU setup.
type PolicyResult struct {
	Policy        string
	CompletionSec float64
	Overhead      float64 // vs batch
	Reduction     float64 // vs orig
}

// Figure9Setup names one of the three LU configurations of Figure 9.
type Figure9Setup struct {
	Label string
	Model workload.Model
}

// Figure9Setups returns the serial, 2-machine and 4-machine LU setups.
func Figure9Setups() []Figure9Setup {
	return []Figure9Setup{
		{"serial", workload.MustGet(workload.LU, workload.ClassB, 1)},
		{"2 machines", workload.MustGet(workload.LU, workload.ClassC, 2)},
		{"4 machines", workload.MustGet(workload.LU, workload.ClassC, 4)},
	}
}

// Figure9 runs LU under every policy combination of §4.3 on each setup.
// All (setup × policy) runs — plus the per-setup batch baselines — are
// independent and fan out across the worker pool in one batch.
func Figure9(cfg Config) (map[string][]PolicyResult, error) {
	cfg.fillDefaults()
	setups := Figure9Setups()
	combos := core.PaperCombos()
	perSetup := 1 + len(combos) // batch baseline first, then each combo
	specs := make([]runSpec, 0, len(setups)*perSetup)
	for _, setup := range setups {
		specs = append(specs, cfg.pair(setup.Model, core.Orig, gang.Batch))
		for _, combo := range combos {
			specs = append(specs, cfg.pair(setup.Model, combo, gang.Gang))
		}
	}
	results, err := cfg.runAll(specs)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]PolicyResult)
	for si, setup := range setups {
		batch := results[si*perSetup]
		var origMake sim.Duration
		var rows []PolicyResult
		for ci, combo := range combos {
			run := results[si*perSetup+1+ci]
			if !combo.Any() {
				origMake = run.Makespan
			}
			rows = append(rows, PolicyResult{
				Policy:        combo.String(),
				CompletionSec: run.Makespan.Seconds(),
				Overhead:      metrics.SwitchingOverhead(run.Makespan, batch.Makespan),
				Reduction:     metrics.PagingReduction(origMake, run.Makespan, batch.Makespan),
			})
		}
		rows = append([]PolicyResult{{
			Policy:        "batch",
			CompletionSec: batch.Makespan.Seconds(),
		}}, rows...)
		out[setup.Label] = rows
	}
	return out, nil
}

// ---------------------------------------------------------------- Figure 6

// TraceResult is one paging-activity trace of Figure 6.
type TraceResult struct {
	Policy string
	// Nodes holds one recorder per machine with the pagein_kb/pageout_kb
	// series binned at one second.
	Nodes []*trace.Recorder
	// ActiveSeconds counts seconds with paging activity above 64 KB/s on
	// node 0 — the compaction measure: adaptive policies should be active
	// in far fewer, taller bursts.
	ActiveSeconds int
	PeakKBps      float64
}

// Figure6Policies lists the four traces of Figure 6 in order.
func Figure6Policies() []core.Features {
	return []core.Features{core.Orig, core.SO, core.SOAO, core.SOAOAIBG}
}

// Figure6 reproduces the paging-activity traces, one per policy of
// Figure6Policies, each observed for the first `window` of execution (the
// paper shows 50 minutes).
func Figure6(cfg Config, window sim.Duration) ([]TraceResult, error) {
	policies := Figure6Policies()
	return mapN(cfg, len(policies), func(i int) (TraceResult, error) {
		return Figure6Trace(cfg, policies[i], window)
	})
}

// Figure6Trace runs one trace of Figure 6: two LU class C instances on
// four machines, 350 MB available memory, 300-second quanta, under the
// given policy for the first `window` of execution (50 minutes when zero).
// The series are a fold of the run's DiskTransfer events, binned at one
// second.
func Figure6Trace(cfg Config, features core.Features, window sim.Duration) (TraceResult, error) {
	cfg.fillDefaults()
	if window <= 0 {
		window = 50 * sim.Minute
	}
	m := workload.MustGet(workload.LU, workload.ClassC, 4)
	paging := trace.NewPaging(m.Ranks, sim.Second)
	cfg.Observe = cfg.Observe.WithSinks(paging)
	cl, err := cfg.build(cfg.pair(m, features, gang.Gang))
	if err != nil {
		return TraceResult{}, err
	}
	cl.Scheduler().Start()
	cl.Eng.RunFor(window)
	tr := TraceResult{Policy: features.String()}
	for id := range cl.Nodes {
		tr.Nodes = append(tr.Nodes, paging.Node(id))
	}
	s := tr.Nodes[0].Series(trace.SeriesPageInKB)
	tr.ActiveSeconds = s.ActiveBins(64)
	tr.PeakKBps = s.Max()
	return tr, nil
}
