package faults

import (
	"math/rand"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Injector owns a plan's runtime state: the pending crash events, the
// per-node disk fault models and the injection tallies. Build one with
// Attach.
type Injector struct {
	c      *cluster.Cluster
	plan   *Plan
	counts map[string]int64
	events []*sim.Event // pending crash events, cancellable on all-done
}

// Attach installs plan on c: straggler speeds are applied, per-node
// disk fault models are armed, and each crash is scheduled as an engine
// event. seed drives the injector's private random sources — the
// engine's model RNG is never consumed, so an empty plan leaves the run
// byte-identical to an uninjected one. Call after BuildScheduler and
// before Run. An empty plan returns an inert injector.
func Attach(c *cluster.Cluster, plan *Plan, seed int64) (*Injector, error) {
	if err := plan.Validate(len(c.Nodes)); err != nil {
		return nil, err
	}
	in := &Injector{c: c, plan: plan, counts: make(map[string]int64)}
	if plan.Empty() {
		return in, nil
	}
	plan.normalize()
	if plan.DiskErrRate > 0 || plan.DiskSlowRate > 0 {
		for _, n := range c.Nodes {
			n.Disk.SetFaults(&DiskFaults{
				inj:      in,
				node:     n.ID,
				rng:      rand.New(rand.NewSource(mix(seed, n.ID))),
				errRate:  plan.DiskErrRate,
				slowRate: plan.DiskSlowRate,
				slowLat:  plan.SlowLatency,
			})
		}
	}
	for _, s := range plan.Stragglers {
		c.SetNodeSpeed(s.Node, s.Factor)
		in.record(s.Node, "straggler", 0, false, 0)
	}
	for _, cr := range plan.Crashes {
		cr := cr
		in.events = append(in.events, c.Eng.Schedule(cr.At, func() {
			if c.NodeIsDown(cr.Node) {
				return // overlapping crash on a dead node: nothing to kill
			}
			in.record(cr.Node, "crash", cr.Downtime, false, 0)
			c.CrashNode(cr.Node, cr.Downtime)
		}))
	}
	// Once the last job finishes, pending crashes are moot; cancelling
	// them lets the engine drain instead of idling to the last fault.
	c.SetOnAllDone(in.CancelPending)
	return in, nil
}

// mix derives a per-node sub-seed; splitmix64-style odd constant keeps
// neighbouring node ids from producing correlated streams.
func mix(seed int64, node int) int64 {
	return seed ^ (int64(node)+1)*-0x61c8864680b583eb
}

// CancelPending cancels crash events that have not fired yet.
func (in *Injector) CancelPending() {
	for _, ev := range in.events {
		ev.Cancel()
	}
}

// Counts returns a copy of the per-class injection tallies
// ("diskerr", "diskslow", "crash", "straggler").
func (in *Injector) Counts() map[string]int64 {
	out := make(map[string]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// record tallies one injection and surfaces it as a FaultInjected event
// plus a labelled counter increment.
func (in *Injector) record(node int, fault string, dur sim.Duration, write bool, pages int) {
	in.counts[fault]++
	o := in.c.Obs()
	if o == nil {
		return
	}
	o.Reg.Counter(obs.MetricFaultsInjected,
		"Faults injected by the fault plan, by class.",
		obs.Labels{"node": strconv.Itoa(node), "fault": fault}).Inc()
	o.Bus.Emit(obs.Event{
		T:     in.c.Eng.Now(),
		Kind:  obs.KindFaultInjected,
		Node:  node,
		Fault: fault,
		Dur:   dur,
		Write: write,
		Pages: pages,
	})
}

// DiskFaults is one node's disk fault model: each transfer attempt may
// fail with a transient error (forcing the disk's bounded
// retry-with-backoff path) or be hit by a latency spike. Draws come
// from the injector's private per-node random source.
type DiskFaults struct {
	inj      *Injector
	node     int
	rng      *rand.Rand
	errRate  float64
	slowRate float64
	slowLat  sim.Duration
}

// Attempt implements disk.FaultModel. Each injected error is emitted as
// a FaultInjected event; the disk layer pairs it with exactly one
// DiskRetry event, so the two counts match 1:1.
func (f *DiskFaults) Attempt(write bool, pages int) (fail bool, extra sim.Duration) {
	if f.errRate > 0 && f.rng.Float64() < f.errRate {
		f.inj.record(f.node, "diskerr", 0, write, pages)
		return true, 0
	}
	if f.slowRate > 0 && f.rng.Float64() < f.slowRate {
		f.inj.record(f.node, "diskslow", f.slowLat, write, pages)
		return false, f.slowLat
	}
	return false, 0
}
