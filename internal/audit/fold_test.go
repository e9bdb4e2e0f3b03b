package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gang"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sim"
)

// foldRun is what one run of runFoldCluster leaves behind for comparison.
type foldRun struct {
	result, events, prom, spans []byte
	logical, steps              uint64 // Engine.Executed and Engine.Steps
	blocker                     uint64 // events the blocker chain fired
	counted                     string // the engine-event series' exposition value
	skipped                     int    // iterations the jobs' touch windows skipped
}

// foldJobs is the pair of jobs a fold cluster runs: each one's segments,
// and whether its first iteration writes every page (InitWrite), plus the
// footprint, iteration count and per-page cost they share.
type foldJobs struct {
	names      [2]string
	segs       [2][]proc.Segment
	initWrite  [2]bool
	footprint  int
	iterations int
	touch      sim.Duration
}

// pagingJobs over-commit the fold cluster's memory (see runFoldCluster).
var pagingJobs = foldJobs{
	names: [2]string{"w", "r"},
	segs: [2][]proc.Segment{{
		{Offset: 500, Pages: 1000, Write: true, Passes: 1},
		{Offset: 0, Pages: 1500, Write: true, Passes: 1},
	}, {
		{Offset: 0, Pages: 300, Write: true, Passes: 1},
		{Offset: 300, Pages: 1200, Passes: 2},
	}},
	footprint: 1500, iterations: 3, touch: 10 * sim.Microsecond,
}

// residentJobs fit the fold cluster's memory together, and one 2 µs/page
// iteration is about a tenth of a quantum, so each job's image stays
// resident through many iterations of every quantum: those are the
// windows that skip iterations. Job "i" writes its read-only matrix in its
// first iteration (InitWrite), so iteration 0 differs from the rest.
var residentJobs = foldJobs{
	names: [2]string{"i", "s"},
	segs: [2][]proc.Segment{{
		{Offset: 0, Pages: 200, Write: true, Passes: 1},
		{Offset: 200, Pages: 600, Passes: 2},
	}, {
		{Offset: 100, Pages: 500, Write: true, Passes: 2},
		{Offset: 0, Pages: 800, Passes: 1},
	}},
	initWrite: [2]bool{true, false},
	footprint: 800, iterations: 40, touch: 2 * sim.Microsecond,
}

// runFoldCluster runs one node with two jobs, observability fully on
// (events, metrics, spans, ledgers) and the auditor checking after every
// logical event.
//
// With pagingJobs, the two over-commit memory. Job "w" writes its whole
// image, so its first iteration is demand-zero fills, and the node runs
// out of free frames part way through: later fills meet the watermark and
// reclaim. It writes the top two thirds first and then the whole image, so
// the fills of the bottom third run on into resident pages: the chunk
// after the last of them touches those too. Job "r" reads most of its
// image and never writes it, so those pages stay clean and swap-less: the
// switch page-out drops them, and "r" refaults them as demand-zero fills
// that the ledger books as switch overhead. Each runs three iterations.
//
// With residentJobs, each runs 40 iterations, most of them resident
// within a quantum, so touch windows cross iteration boundaries and skip
// whole iterations.
//
// With bg set, the background writer starts a tenth of the way into each
// quantum and cleans 100 pages every 2 ms, so its passes land while "w"
// fills its image: each picks the youngest dirty pages, those the fills
// just before it wrote, which only their own last-use stamps tell apart.
// Among resident iterations, its passes clean pages the next iteration
// dirties again.
//
// With blocked set, a no-op event fires every microsecond until the last
// job finishes. It is always the queue's next event, so no touch window
// can absorb a chunk or a fill: the run takes the one-event-per-step
// schedule that fast-forwarding must reproduce (DESIGN §10b).
func runFoldCluster(t *testing.T, jobs foldJobs, bg, blocked bool) foldRun {
	t.Helper()
	kcfg, opts := core.Config{}, gang.Options{}
	if bg {
		kcfg = core.Config{BGWriteBatch: 100, BGWriteInterval: 2 * sim.Millisecond}
		opts.BGWriteFraction = 0.9
	}
	c, err := cluster.New(1, 1, cluster.NodeConfig{MemoryMB: 8}, core.SOAOAIBG, kcfg)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableAcct()
	var events bytes.Buffer
	sink := obs.NewJSONL(&events)
	tail := obs.NewRing(TraceTail)
	setup := (&obs.Options{Sinks: []obs.Sink{sink, tail}, Metrics: true, Trace: true, Ledger: true}).Build()
	c.EnableObservability(setup)
	for i, name := range jobs.names {
		beh := proc.Behavior{
			FootprintPages: jobs.footprint,
			Iterations:     jobs.iterations,
			Segments:       jobs.segs[i],
			TouchCost:      jobs.touch,
			InitWrite:      jobs.initWrite[i],
		}
		if _, err := c.AddJob(cluster.JobSpec{Name: name, Behavior: beh, Quantum: 40 * sim.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	c.BuildScheduler(opts)
	a := Attach(c, Config{Every: 1, Ring: tail})

	var run foldRun
	if blocked {
		var tick func()
		tick = func() {
			run.blocker++
			for _, j := range c.Jobs() {
				if !j.Done() {
					c.Eng.ScheduleDetached(sim.Microsecond, tick)
					return
				}
			}
		}
		c.Eng.ScheduleDetached(0, tick)
	}
	if err := c.Run(10 * sim.Minute); err != nil {
		t.Fatalf("blocked=%v: %v", blocked, err)
	}
	if a.Violations() != 0 {
		t.Fatalf("blocked=%v: %d violations", blocked, a.Violations())
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	setup.Tracer.CloseAll(c.Eng.Now())
	res := metrics.Collect(c, "so/ao/ai/bg")
	if run.result, err = json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := setup.Reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if run.spans, err = json.Marshal(setup.Tracer.Spans()); err != nil {
		t.Fatal(err)
	}
	run.events, run.prom = events.Bytes(), prom.Bytes()
	run.counted = strings.TrimPrefix(string(engineEvents.Find(run.prom)), obs.MetricEngineEvents+" ")
	run.logical, run.steps = c.Eng.Executed(), c.Eng.Steps()
	for _, j := range c.Jobs() {
		run.skipped += j.Members[0].Proc.Stats().SkippedIterations
	}
	return run
}

// engineEvents matches the Prometheus line of the engine's logical event
// counter, the one series the blocker's own events move.
var engineEvents = regexp.MustCompile(`(?m)^` + obs.MetricEngineEvents + ` .*$`)

// promCount renders n as the exposition renders a counter.
func promCount(n uint64) string { return strconv.FormatFloat(float64(n), 'g', -1, 64) }

// TestFoldMatchesUnfolded pins touch-window fast-forwarding, demand-zero
// fills and skipped iterations included, against the schedule without it:
// every output of a fully observed, audited run is byte-identical, and
// logical events match exactly once the blocker's are taken out. It runs
// the over-committed cluster with the default background writer and with
// one whose passes land among the fills, and the resident cluster with
// both, where the folded runs must skip iterations.
func TestFoldMatchesUnfolded(t *testing.T) {
	for _, bg := range []bool{false, true} {
		t.Run(fmt.Sprintf("bg=%v", bg), func(t *testing.T) { checkFold(t, pagingJobs, bg) })
	}
	for _, bg := range []bool{false, true} {
		t.Run(fmt.Sprintf("resident,bg=%v", bg), func(t *testing.T) {
			if free := checkFold(t, residentJobs, bg); free.skipped == 0 {
				t.Error("no touch window skipped an iteration")
			}
		})
	}
}

func checkFold(t *testing.T, jobs foldJobs, bg bool) foldRun {
	free := runFoldCluster(t, jobs, bg, false)
	blocked := runFoldCluster(t, jobs, bg, true)
	model := blocked.logical - blocked.blocker

	if !bytes.Equal(free.result, blocked.result) {
		t.Errorf("result JSON differs:\nfolded   %s\nunfolded %s", free.result, blocked.result)
	}
	if !bytes.Equal(free.events, blocked.events) {
		t.Errorf("event streams differ (%d vs %d bytes)", len(free.events), len(blocked.events))
	}
	if !bytes.Equal(free.spans, blocked.spans) {
		t.Errorf("span lists differ (%d vs %d bytes)", len(free.spans), len(blocked.spans))
	}
	if free.logical != model {
		t.Errorf("folded run counted %d logical events, unfolded model %d", free.logical, model)
	}
	// The blocker's events count in the engine-event series: compare its
	// exact value less theirs, then the rest of the exposition byte for byte.
	if free.counted != promCount(model) || blocked.counted != promCount(blocked.logical) {
		t.Errorf("engine-event series %s folded, %s unfolded; want %d and %d",
			free.counted, blocked.counted, model, blocked.logical)
	}
	mask := []byte(obs.MetricEngineEvents + " N")
	if f, b := engineEvents.ReplaceAll(free.prom, mask), engineEvents.ReplaceAll(blocked.prom, mask); !bytes.Equal(f, b) {
		t.Errorf("Prometheus text differs:\nfolded\n%s\nunfolded\n%s", f, b)
	}
	if blocked.steps != blocked.logical {
		t.Errorf("blocked run folded: %d steps for %d logical events", blocked.steps, blocked.logical)
	}
	if free.steps*10 > model {
		t.Errorf("folded run took %d engine steps for %d model events, want at most a tenth", free.steps, model)
	}
	if blocked.skipped != 0 {
		t.Errorf("blocked run skipped %d iterations", blocked.skipped)
	}
	t.Logf("model events %d, folded steps %d, blocker events %d, skipped iterations %d",
		model, free.steps, blocked.blocker, free.skipped)
	return free
}
