package expt

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gang"
	"repro/internal/metrics"
	"repro/internal/obs"
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

// runSpec describes one cluster a study runs, as plain data. Every study
// states its runs this way; most start from the paper's pair and change one
// field.
type runSpec struct {
	study string // names the study in errors
	label string // names the run in errors and labels its result
	nodes int
	node  cluster.NodeConfig
	// features is the kernel mechanism set on every node.
	features core.Features
	jobs     []cluster.JobSpec
	sched    gang.Options
}

// pair describes the paper's experiment for m: two instances named
// <App>-1 and <App>-2 on m.Ranks machines, all memory but m.AvailMB
// wired, the working-set hint passed, and the quantum m runs with.
func (c Config) pair(m workload.Model, features core.Features, mode gang.Mode) runSpec {
	s := runSpec{
		study:    fmt.Sprintf("%s/%s/%d", m.App, m.Class, m.Ranks),
		label:    features.String(),
		nodes:    m.Ranks,
		node:     cluster.DefaultNodeConfig(),
		features: features,
		sched:    gang.Options{Mode: mode, BGWriteFraction: c.BGWriteFraction},
	}
	if mode == gang.Batch {
		s.label = "batch"
	}
	s.node.LockedMB = s.node.MemoryMB - m.AvailMB
	beh, q := m.Behavior(), m.Quantum(c.Quantum)
	for i := 1; i <= 2; i++ {
		s.jobs = append(s.jobs, cluster.JobSpec{
			Name:       fmt.Sprintf("%s-%d", m.App, i),
			Behavior:   beh,
			Quantum:    q,
			PassWSHint: true,
		})
	}
	return s
}

// compared describes the runs an AppResult compares for m: batch, the
// original policy and the full adaptive combination, in that order.
func (c Config) compared(m workload.Model) []runSpec {
	return []runSpec{
		c.pair(m, core.Orig, gang.Batch),
		c.pair(m, core.Orig, gang.Gang),
		c.pair(m, core.SOAOAIBG, gang.Gang),
	}
}

// build assembles the cluster s describes, observed as c.Observe asks.
// Each build gets its own observability Setup, so concurrent runs share
// nothing.
func (c Config) build(s runSpec) (*cluster.Cluster, error) {
	cl, err := cluster.New(c.Seed, s.nodes, s.node, s.features, core.Config{})
	if err != nil {
		return nil, fmt.Errorf("expt: %s %s: %w", s.study, s.label, err)
	}
	cl.EnableObservability(c.Observe.Build())
	for _, j := range s.jobs {
		if _, err := cl.AddJob(j); err != nil {
			return nil, fmt.Errorf("expt: %s %s: %w", s.study, s.label, err)
		}
	}
	cl.BuildScheduler(s.sched)
	return cl, nil
}

// complete runs a cluster built from s to completion and collects it.
func (c Config) complete(s runSpec, cl *cluster.Cluster) (metrics.RunResult, error) {
	if err := cl.Run(c.TimeLimit); err != nil {
		return metrics.RunResult{}, fmt.Errorf("expt: %s %s: %w", s.study, s.label, err)
	}
	return metrics.Collect(cl, s.label), nil
}

// run builds s and runs it to completion.
func (c Config) run(s runSpec) (metrics.RunResult, error) {
	cl, err := c.build(s)
	if err != nil {
		return metrics.RunResult{}, err
	}
	return c.complete(s, cl)
}

// runAll runs every spec across the worker pool and returns the results
// in spec order.
func (c Config) runAll(specs []runSpec) ([]metrics.RunResult, error) {
	return mapN(c, len(specs), func(i int) (metrics.RunResult, error) {
		return c.run(specs[i])
	})
}

// RunPair executes two instances of the model to completion and returns
// the collected result.
func (c Config) RunPair(m workload.Model, features core.Features, mode gang.Mode) (metrics.RunResult, error) {
	c.fillDefaults()
	return c.run(c.pair(m, features, mode))
}

// mapN fans f out over [0, n) on the configured worker count and returns
// the results in index order. It is the single funnel every experiment's
// independent runs go through.
func mapN[T any](c Config, n int, f func(i int) (T, error)) ([]T, error) {
	return runner.Map(context.Background(), c.Parallel, n, func(_ context.Context, i int) (T, error) {
		return f(i)
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

// compareAll runs the batch / orig / full-adaptive triple for every model,
// fanning all 3×len(models) independent runs across the worker pool at
// once, and assembles one AppResult per model in input order.
func (c Config) compareAll(models []workload.Model) ([]AppResult, error) {
	specs := make([]runSpec, 0, 3*len(models))
	for _, m := range models {
		specs = append(specs, c.compared(m)...)
	}
	results, err := c.runAll(specs)
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
