package main

import (
	"fmt"
	"time"

	gangsched "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gang"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// simulate runs spec to completion through the cluster build calls,
// mirroring gangsched.RunDetailed on the serial engine, and returns the
// result together with the run's logical engine events, which RunDetailed
// does not expose. o attaches observability (nil = off). Faults, audits,
// shards, traces and live observation are not mirrored; the benchmark's
// specs use none of them.
func simulate(spec gangsched.Spec, o *obs.Options) (metrics.RunResult, uint64, error) {
	if err := spec.Validate(); err != nil {
		return metrics.RunResult{}, 0, err
	}
	features, err := core.ParseFeatures(spec.Policy)
	if err != nil {
		return metrics.RunResult{}, 0, err
	}
	nc := cluster.DefaultNodeConfig()
	if spec.MemoryMB > 0 {
		nc.MemoryMB = spec.MemoryMB
	}
	nc.LockedMB = spec.LockedMB
	nc.FreeMinPages = spec.FreeMinPages
	nc.FreeHighPages = spec.FreeHighPages
	nc.VM.ClusterOut = spec.ClusterOut
	nodes := spec.Nodes
	if nodes <= 0 {
		nodes = 1
	}
	cl, err := cluster.New(spec.Seed, nodes, nc, features, core.Config{})
	if err != nil {
		return metrics.RunResult{}, 0, err
	}
	cl.EnableObservability(o.Build())
	quantum := 5 * time.Minute
	if spec.Quantum > 0 {
		quantum = spec.Quantum
	}
	for _, j := range spec.Jobs {
		q := quantum
		if j.Quantum > 0 {
			q = j.Quantum
		}
		if _, err := cl.AddJob(cluster.JobSpec{
			Name:       j.Name,
			Behavior:   j.Workload,
			Quantum:    sim.DurationOf(q),
			PassWSHint: j.HintWorkingSet,
		}); err != nil {
			return metrics.RunResult{}, 0, err
		}
	}
	mode, label := gang.Gang, features.String()
	if spec.Batch {
		mode, label = gang.Batch, "batch"
	}
	cl.BuildScheduler(gang.Options{Mode: mode, BGWriteFraction: spec.BGWriteFraction})
	limit := 24 * time.Hour
	if spec.TimeLimit > 0 {
		limit = spec.TimeLimit
	}
	if err := cl.Run(sim.DurationOf(limit)); err != nil {
		return metrics.RunResult{}, 0, fmt.Errorf("simulate: %w", err)
	}
	var events uint64
	for _, eng := range cl.Engines() {
		events += eng.Executed()
	}
	return metrics.Collect(cl, label), events, nil
}
