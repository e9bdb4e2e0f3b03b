package expt

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gang"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config carries the knobs shared by every experiment.
type Config struct {
	Seed int64
	// Quantum is the gang time slice (paper: 5 minutes; SP on four
	// machines uses 7, applied automatically by the runners).
	Quantum sim.Duration
	// BGWriteFraction is the tail fraction of the quantum during which the
	// background writer runs.
	BGWriteFraction float64
	// TimeLimit aborts wedged runs.
	TimeLimit sim.Duration
	// Parallel bounds how many independent simulation runs execute
	// concurrently: 0 means one worker per CPU, 1 forces serial
	// execution. Every run owns its engine and RNG, and results are
	// assembled in submission order, so the output is byte-identical at
	// any setting.
	Parallel int
	// Observe, when non-nil, attaches the observability layer to every
	// cluster the config builds (the attribution study sets Ledger so
	// RunResult carries per-job wall-time decompositions). Each run builds
	// its own Setup, so concurrent runs share nothing.
	Observe *obs.Options
}

// DefaultConfig returns the paper's experimental settings.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		Quantum:         5 * sim.Minute,
		BGWriteFraction: 0.1,
		TimeLimit:       24 * sim.Hour,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Quantum <= 0 {
		c.Quantum = d.Quantum
	}
	if c.BGWriteFraction <= 0 {
		c.BGWriteFraction = d.BGWriteFraction
	}
	if c.TimeLimit <= 0 {
		c.TimeLimit = d.TimeLimit
	}
}

// quantumFor returns the quantum a model needs: SP on four machines gets 7
// minutes "to avoid continuous memory thrashing" (§4.2) whenever the
// configured quantum is the default 5.
func (c Config) quantumFor(m workload.Model) sim.Duration {
	if m.App == workload.SP && m.Ranks == 4 && c.Quantum == 5*sim.Minute {
		return 7 * sim.Minute
	}
	return c.Quantum
}

// buildPair constructs a cluster running two instances of the model under
// the given feature set and scheduling mode.
func (c Config) buildPair(m workload.Model, features core.Features, mode gang.Mode) (*cluster.Cluster, error) {
	return c.buildPairWithBehavior(m, m.Behavior(), features, mode)
}

// buildPairWithBehavior is buildPair with an explicit (possibly modified)
// per-rank behaviour, used by studies that add jitter or tweak segments.
func (c Config) buildPairWithBehavior(m workload.Model, beh proc.Behavior, features core.Features, mode gang.Mode) (*cluster.Cluster, error) {
	nc := cluster.DefaultNodeConfig()
	nc.LockedMB = nc.MemoryMB - m.AvailMB
	cl, err := cluster.New(c.Seed, m.Ranks, nc, features, core.Config{})
	if err != nil {
		return nil, err
	}
	cl.EnableObservability(c.Observe.Build())
	q := c.quantumFor(m)
	for i := 1; i <= 2; i++ {
		spec := cluster.JobSpec{
			Name:       fmt.Sprintf("%s-%d", m.App, i),
			Behavior:   beh,
			Quantum:    q,
			PassWSHint: true,
		}
		if _, err := cl.AddJob(spec); err != nil {
			return nil, err
		}
	}
	cl.BuildScheduler(gang.Options{Mode: mode, BGWriteFraction: c.BGWriteFraction})
	return cl, nil
}

// RunPair executes two instances of the model to completion and returns
// the collected result.
func (c Config) RunPair(m workload.Model, features core.Features, mode gang.Mode) (metrics.RunResult, error) {
	c.fillDefaults()
	cl, err := c.buildPair(m, features, mode)
	if err != nil {
		return metrics.RunResult{}, err
	}
	if err := cl.Run(c.TimeLimit); err != nil {
		return metrics.RunResult{}, fmt.Errorf("expt: %s %s/%s: %w", m.App, features, mode, err)
	}
	label := features.String()
	if mode == gang.Batch {
		label = "batch"
	}
	return metrics.Collect(cl, label), nil
}

// mapN fans f out over [0, n) on the configured worker count and returns
// the results in index order. It is the single funnel every experiment's
// independent runs go through.
func mapN[T any](c Config, n int, f func(i int) (T, error)) ([]T, error) {
	return runner.Map(context.Background(), c.Parallel, n, func(_ context.Context, i int) (T, error) {
		return f(i)
	})
}

// pairRun names one RunPair invocation inside a batch.
type pairRun struct {
	m        workload.Model
	features core.Features
	mode     gang.Mode
}

// runPairs executes the listed runs concurrently and returns their
// results in submission order.
func (c Config) runPairs(runs []pairRun) ([]metrics.RunResult, error) {
	return mapN(c, len(runs), func(i int) (metrics.RunResult, error) {
		r := runs[i]
		return c.RunPair(r.m, r.features, r.mode)
	})
}

// AppResult is one row of the Figure 7 / Figure 8 style tables.
type AppResult struct {
	App   workload.App
	Class workload.Class
	Ranks int

	BatchSec    float64 // batch completion (both instances, back to back)
	OrigSec     float64 // gang with the original policy
	AdaptiveSec float64 // gang with so/ao/ai/bg

	OrigOverhead     float64 // (orig - batch) / orig
	AdaptiveOverhead float64
	Reduction        float64 // paging reduction of adaptive vs orig
}

// comparePair runs batch, orig and full-adaptive for one model.
func (c Config) comparePair(m workload.Model) (AppResult, error) {
	rows, err := c.compareAll([]workload.Model{m})
	if err != nil {
		return AppResult{}, err
	}
	return rows[0], nil
}

// compareAll runs the batch / orig / full-adaptive triple for every model,
// fanning all 3×len(models) independent runs across the worker pool at
// once, and assembles one AppResult per model in input order.
func (c Config) compareAll(models []workload.Model) ([]AppResult, error) {
	runs := make([]pairRun, 0, 3*len(models))
	for _, m := range models {
		runs = append(runs,
			pairRun{m, core.Orig, gang.Batch},
			pairRun{m, core.Orig, gang.Gang},
			pairRun{m, core.SOAOAIBG, gang.Gang},
		)
	}
	results, err := c.runPairs(runs)
	if err != nil {
		return nil, err
	}
	out := make([]AppResult, len(models))
	for i, m := range models {
		batch, orig, adpt := results[3*i], results[3*i+1], results[3*i+2]
		r := AppResult{
			App: m.App, Class: m.Class, Ranks: m.Ranks,
			BatchSec:    batch.Makespan.Seconds(),
			OrigSec:     orig.Makespan.Seconds(),
			AdaptiveSec: adpt.Makespan.Seconds(),
		}
		r.OrigOverhead = metrics.SwitchingOverhead(orig.Makespan, batch.Makespan)
		r.AdaptiveOverhead = metrics.SwitchingOverhead(adpt.Makespan, batch.Makespan)
		r.Reduction = metrics.PagingReduction(orig.Makespan, adpt.Makespan, batch.Makespan)
		out[i] = r
	}
	return out, nil
}
