package expt

import (
	"fmt"
	"strings"

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
	nc := cluster.DefaultNodeConfig()
	// Size memory so the resident gang plus prefetch headroom fit but the
	// full job set does not: the adaptive mechanisms stay on the critical
	// path without the run degenerating into a pure thrash test.
	nc.MemoryMB = 64
	cl, err := cluster.New(cfg.Seed, nodes, nc, core.SOAOAIBG, core.Config{})
	if err != nil {
		return ScaleResult{}, err
	}
	cl.EnableObservability(cfg.Observe.Build())
	beh := scaleBehavior()
	quantum := 100 * sim.Millisecond
	for i := 0; i < gangs; i++ {
		if _, err := cl.AddJob(cluster.JobSpec{
			Name:       fmt.Sprintf("gang-%03d", i),
			Behavior:   beh,
			Quantum:    quantum,
			PassWSHint: true,
		}); err != nil {
			return ScaleResult{}, err
		}
	}
	cl.BuildScheduler(gang.Options{Mode: gang.Gang, BGWriteFraction: cfg.BGWriteFraction})
	if err := cl.Run(cfg.TimeLimit); err != nil {
		return ScaleResult{}, fmt.Errorf("expt: scale %dx%d: %w", nodes, gangs, err)
	}

	res := ScaleResult{
		Nodes:    nodes,
		Gangs:    gangs,
		Events:   cl.Eng.Executed(),
		Switches: cl.Scheduler().Stats().Switches,
	}
	var sum float64
	for _, j := range cl.Jobs() {
		sec := sim.Duration(j.FinishedAt()).Seconds()
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

// FormatScaleTable renders the scale study as a text figure.
func FormatScaleTable(title string, r ScaleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-28s %12s\n", "metric", "value")
	row := func(name, val string) { fmt.Fprintf(&b, "%-28s %12s\n", name, val) }
	row("nodes", fmt.Sprintf("%d", r.Nodes))
	row("gangs", fmt.Sprintf("%d", r.Gangs))
	row("makespan (s)", fmt.Sprintf("%.1f", r.MakespanSec))
	row("engine events", fmt.Sprintf("%d", r.Events))
	row("gang switches", fmt.Sprintf("%d", r.Switches))
	row("mean gang completion (s)", fmt.Sprintf("%.1f", r.MeanGangSec))
	row("max gang completion (s)", fmt.Sprintf("%.1f", r.MaxGangSec))
	return b.String()
}
