package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	gangsched "repro"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proc"
)

// The cluster is ScaleStudy's at a quarter of the 64 nodes the study's
// smallest published size uses: the same 1.5x overcommit of every 64 MB
// node by 128 gangs, at an op of about half a second. At 64 and 32 nodes
// the op's timings spread two to four times wider between runs on a host
// with noisy memory bandwidth (see NOTES.md).
const (
	scaleNodes = 16
	scaleGangs = 128
)

// scaleGolden is the committed op at seed 1: makespan in simulated
// microseconds, logical engine events, gang switches, and an FNV-64 hash
// of every gang's completion time in submission order.
var scaleGolden = scaleOutcome{makespan: 34951182, events: 839889, switches: 281, completions: 5926377933091643350}

type scaleOutcome struct {
	makespan    int64
	events      uint64
	switches    int64
	completions uint64
}

// scale is the scale-gangs workload: one op is one gang-scheduled cluster
// in expt.ScaleStudy's shape (every gang spans every node, 64 MB nodes,
// 100 ms quanta, a barrier every iteration, so/ao/ai/bg, serial engine,
// observability off), with each gang's footprint and iteration count
// dealt by the seed around the study's 192 pages × 24 iterations.
type scale struct {
	spec gangsched.Spec
	seed int64
	want *scaleOutcome // the first op's outcome; every later op repeats it
}

func newScale(seed int64) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	spec := gangsched.Spec{
		Seed:     seed,
		Nodes:    scaleNodes,
		MemoryMB: 64,
		Policy:   "so/ao/ai/bg",
		Quantum:  100 * time.Millisecond,
	}
	// Footprints step evenly through 144..240 pages and iteration counts
	// through 18..30 (192 and 24 ± 25%); the seed deals them out to the
	// gangs, so every seed's cluster holds the same total work.
	pages, iters := rng.Perm(scaleGangs), rng.Perm(scaleGangs)
	for i := 0; i < scaleGangs; i++ {
		p := 144 + 96*pages[i]/(scaleGangs-1)
		spec.Jobs = append(spec.Jobs, gangsched.JobSpec{
			Name: fmt.Sprintf("gang-%03d", i),
			Workload: proc.Behavior{
				FootprintPages: p,
				Iterations:     18 + 12*iters[i]/(scaleGangs-1),
				Segments:       []proc.Segment{{Offset: 0, Pages: p, Write: true, Passes: 1}},
				TouchCost:      50,
				SyncEveryIter:  true,
				MsgBytes:       4096,
			},
			HintWorkingSet: true,
		})
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &scale{spec: spec, seed: seed}, nil
}

// warmup runs one op, whose outcome every timed op must repeat.
func (s *scale) warmup(int, bench) (int, int) {
	if _, err := s.op(nil); err != nil {
		fmt.Println("perfbench: failed warm-up op:", err)
		return 1, 1
	}
	return 1, 0
}

func (s *scale) op(p *probe) (uint64, error) {
	var o *obs.Options
	if p != nil {
		o = &obs.Options{Ledger: true}
	}
	id := p.begin("cluster run")
	res, events, err := simulate(s.spec, o)
	p.end(id)
	if err != nil {
		return 0, err
	}
	p.addRun(res)
	p.add("sim.events", float64(events))
	got := outcomeOf(res, events)
	for _, j := range res.Jobs {
		if !j.Done {
			return 0, fmt.Errorf("scale-gangs: gang %s did not finish", j.Name)
		}
	}
	if s.want == nil {
		if s.seed == 1 && got != scaleGolden {
			return 0, fmt.Errorf("scale-gangs: seed 1 outcome %+v, want the committed %+v", got, scaleGolden)
		}
		s.want = &got
	}
	if got != *s.want {
		return 0, fmt.Errorf("scale-gangs: outcome %+v differs from the first op's %+v", got, *s.want)
	}
	return events, nil
}

func outcomeOf(res metrics.RunResult, events uint64) scaleOutcome {
	h := fnv.New64a()
	for _, j := range res.Jobs {
		fmt.Fprintf(h, "%d,", j.FinishedAt)
	}
	return scaleOutcome{
		makespan:    int64(res.Makespan),
		events:      events,
		switches:    res.Switches,
		completions: h.Sum64(),
	}
}

func (s *scale) close() error { return nil }
