package expt

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gang"
	"repro/internal/proc"
	"repro/internal/sim"
)

// ScaleResult summarises one large-cluster gang-scheduling run — the scale
// the ROADMAP's batch-vs-fractional comparisons need, far past the paper's
// four machines. All fields are simulation-domain (no wall-clock), so the
// formatted study is byte-identical across hosts and worker counts.
type ScaleResult struct {
	Nodes int
	Gangs int

	MakespanSec float64 // last gang completion, simulated seconds
	Events      uint64  // logical engine events executed
	Switches    int64   // gang context switches

	MeanGangSec float64 // mean gang completion time
	MaxGangSec  float64 // slowest gang completion time
	// GangSec holds every gang's completion time in submission order (the
	// scale figure plots this series sorted, a completion CDF).
	GangSec []float64
}

// scaleBehavior is the synthetic per-rank workload of the scale study: a
// small strided sweep with a barrier every iteration, sized so that a
// 512-node run stays inside a benchmark budget while still exercising the
// switch/prefetch/barrier machinery on every node.
func scaleBehavior() proc.Behavior {
	// 192 pages x 128 gangs ~ 1.5x the 64 MB node memory: real reclaim and
	// adaptive paging on every switch, without degenerating into a thrash
	// test. 24 iterations at ~9.6 ms each against a 100 ms quantum means
	// every gang needs several slices, so the rotation machinery runs.
	const pages = 192
	return proc.Behavior{
		FootprintPages: pages,
		Iterations:     24,
		Segments:       []proc.Segment{{Offset: 0, Pages: pages, Write: true, Passes: 1}},
		TouchCost:      50, // µs per page visit
		SyncEveryIter:  true,
		MsgBytes:       4096,
	}
}

// ScaleStudy gang-schedules `gangs` synthetic parallel jobs — every gang
// spanning all `nodes` machines — under the full adaptive policy, and
// reports completion statistics.
func ScaleStudy(cfg Config, nodes, gangs int) (ScaleResult, error) {
	cfg.fillDefaults()
	if nodes < 1 || gangs < 1 {
		return ScaleResult{}, fmt.Errorf("expt: scale study wants positive nodes and gangs, got %d/%d", nodes, gangs)
	}
	s := cfg.scale(nodes, gangs)
	cl, err := cfg.build(s)
	if err != nil {
		return ScaleResult{}, err
	}
	run, err := cfg.complete(s, cl)
	if err != nil {
		return ScaleResult{}, err
	}

	res := ScaleResult{
		Nodes:    nodes,
		Gangs:    gangs,
		Events:   cl.Eng.Executed(),
		Switches: run.Switches,
	}
	var sum float64
	for _, j := range run.Jobs {
		sec := sim.Duration(j.FinishedAt).Seconds()
		res.GangSec = append(res.GangSec, sec)
		sum += sec
		if sec > res.MaxGangSec {
			res.MaxGangSec = sec
		}
		if sec > res.MakespanSec {
			res.MakespanSec = sec
		}
	}
	res.MeanGangSec = sum / float64(gangs)
	return res, nil
}

// scale describes the scale study's one run: `gangs` copies of
// scaleBehavior, each spanning all `nodes` 64 MB machines.
func (c Config) scale(nodes, gangs int) runSpec {
	s := runSpec{
		study: "scale", label: fmt.Sprintf("%dx%d", nodes, gangs),
		nodes: nodes, node: cluster.DefaultNodeConfig(), features: core.SOAOAIBG,
		sched: gang.Options{Mode: gang.Gang, BGWriteFraction: c.BGWriteFraction},
	}
	// Size memory so the resident gang plus prefetch headroom fit but the
	// full job set does not: the adaptive mechanisms stay on the critical
	// path without the run degenerating into a pure thrash test.
	s.node.MemoryMB = 64
	beh := scaleBehavior()
	for i := 0; i < gangs; i++ {
		s.jobs = append(s.jobs, cluster.JobSpec{
			Name:       fmt.Sprintf("gang-%03d", i),
			Behavior:   beh,
			Quantum:    100 * sim.Millisecond,
			PassWSHint: true,
		})
	}
	return s
}
