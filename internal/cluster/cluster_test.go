package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gang"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// smallBehavior is a compact workload for fast tests: footprintMB of
// memory swept each iteration, all writes.
func smallBehavior(footprintPages, iters int) proc.Behavior {
	return proc.Behavior{
		FootprintPages: footprintPages,
		Iterations:     iters,
		Segments:       []proc.Segment{{Offset: 0, Pages: footprintPages, Write: true, Passes: 1}},
		TouchCost:      5 * sim.Microsecond,
	}
}

func tinyNode() NodeConfig {
	nc := DefaultNodeConfig()
	nc.MemoryMB = 8 // 2048 frames
	return nc
}

func TestSingleJobRunsToCompletion(t *testing.T) {
	c, err := New(1, 1, tinyNode(), core.Orig, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.AddJob(JobSpec{Name: "a", Behavior: smallBehavior(500, 3), Quantum: sim.Minute})
	if err != nil {
		t.Fatal(err)
	}
	c.BuildScheduler(gang.Options{})
	if err := c.Run(sim.Hour); err != nil {
		t.Fatal(err)
	}
	if !job.Done() {
		t.Fatal("job not done")
	}
	if job.FinishedAt() <= 0 {
		t.Fatal("no finish time")
	}
}

func TestTwoJobsGangScheduledBothFinish(t *testing.T) {
	nc := tinyNode()
	nc.MemoryMB = 6 // 1536 frames; two 1000-page jobs over-commit
	c, err := New(1, 1, nc, core.SOAOAIBG, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := c.AddJob(JobSpec{Name: "a", Behavior: smallBehavior(1000, 60), Quantum: 30 * sim.Millisecond, PassWSHint: true})
	j2, _ := c.AddJob(JobSpec{Name: "b", Behavior: smallBehavior(1000, 60), Quantum: 30 * sim.Millisecond, PassWSHint: true})
	s := c.BuildScheduler(gang.Options{})
	if err := c.Run(2 * sim.Hour); err != nil {
		t.Fatal(err)
	}
	if !j1.Done() || !j2.Done() {
		t.Fatal("jobs unfinished")
	}
	if s.Stats().Switches == 0 {
		t.Fatal("no switches happened")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Memory of finished jobs is released.
	for _, n := range c.Nodes {
		if n.VM.NumProcesses() != 0 {
			t.Fatal("finished jobs still hold address spaces")
		}
		if n.Swap.Used() != 0 {
			t.Fatalf("swap leaked: %d", n.Swap.Used())
		}
	}
}

func TestBatchModeRunsSequentially(t *testing.T) {
	nc := tinyNode()
	c, _ := New(1, 1, nc, core.Orig, core.Config{})
	j1, _ := c.AddJob(JobSpec{Name: "a", Behavior: smallBehavior(400, 3), Quantum: sim.Minute})
	j2, _ := c.AddJob(JobSpec{Name: "b", Behavior: smallBehavior(400, 3), Quantum: sim.Minute})
	s := c.BuildScheduler(gang.Options{Mode: gang.Batch})
	if err := c.Run(sim.Hour); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Switches != 0 {
		t.Fatalf("batch mode performed %d gang switches", s.Stats().Switches)
	}
	// Job b starts only after a finishes.
	if j2.FinishedAt() <= j1.FinishedAt() {
		t.Fatal("batch order violated")
	}
	aStart := j1.Members[0].Proc.Stats().StartedAt
	bStart := j2.Members[0].Proc.Stats().StartedAt
	if bStart < j1.FinishedAt() || aStart != 0 {
		t.Fatalf("b started at %v, a finished at %v", bStart, j1.FinishedAt())
	}
}

func TestGangSwitchingWithMemoryPressureIsSlowerThanBatch(t *testing.T) {
	// The motivating observation: gang scheduling with over-committed
	// memory pays a job-switching paging cost batch does not.
	run := func(mode gang.Mode) sim.Time {
		nc := tinyNode()
		nc.MemoryMB = 6
		c, _ := New(1, 1, nc, core.Orig, core.Config{})
		c.AddJob(JobSpec{Name: "a", Behavior: smallBehavior(1100, 60), Quantum: 30 * sim.Millisecond})
		c.AddJob(JobSpec{Name: "b", Behavior: smallBehavior(1100, 60), Quantum: 30 * sim.Millisecond})
		c.BuildScheduler(gang.Options{Mode: mode})
		if err := c.Run(4 * sim.Hour); err != nil {
			t.Fatal(err)
		}
		var last sim.Time
		for _, j := range c.Jobs() {
			if j.FinishedAt() > last {
				last = j.FinishedAt()
			}
		}
		return last
	}
	tGang := run(gang.Gang)
	tBatch := run(gang.Batch)
	if tGang <= tBatch {
		t.Fatalf("gang (%v) not slower than batch (%v) under over-commit", tGang, tBatch)
	}
}

func TestAdaptivePagingBeatsOriginal(t *testing.T) {
	// The headline claim, in miniature: so/ao/ai/bg completes the same
	// over-committed pair faster than the original policy.
	// The paper's regime: the quantum comfortably exceeds the working-set
	// transfer time (5-minute quanta vs tens of seconds of paging). Scale
	// that ratio down: ~1 s quantum vs ~0.2-0.9 s of switch paging.
	run := func(f core.Features) sim.Time {
		nc := tinyNode()
		nc.MemoryMB = 6
		c, _ := New(1, 1, nc, f, core.Config{})
		beh := smallBehavior(1100, 100)
		beh.TouchCost = 50 * sim.Microsecond
		c.AddJob(JobSpec{Name: "a", Behavior: beh, Quantum: sim.Second, PassWSHint: true})
		c.AddJob(JobSpec{Name: "b", Behavior: beh, Quantum: sim.Second, PassWSHint: true})
		c.BuildScheduler(gang.Options{})
		if err := c.Run(4 * sim.Hour); err != nil {
			t.Fatal(err)
		}
		var last sim.Time
		for _, j := range c.Jobs() {
			if j.FinishedAt() > last {
				last = j.FinishedAt()
			}
		}
		return last
	}
	tOrig := run(core.Orig)
	tAdaptive := run(core.SOAOAIBG)
	if tAdaptive >= tOrig {
		t.Fatalf("adaptive (%v) not faster than original (%v)", tAdaptive, tOrig)
	}
}

func TestParallelJobAcrossNodes(t *testing.T) {
	nc := tinyNode()
	c, err := New(1, 4, nc, core.SOAOAIBG, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	beh := smallBehavior(800, 60)
	beh.SyncEveryIter = true
	beh.MsgBytes = 4096
	j1, _ := c.AddJob(JobSpec{Name: "p1", Behavior: beh, Quantum: 30 * sim.Millisecond, PassWSHint: true})
	j2, _ := c.AddJob(JobSpec{Name: "p2", Behavior: beh, Quantum: 30 * sim.Millisecond, PassWSHint: true})
	c.BuildScheduler(gang.Options{})
	if err := c.Run(2 * sim.Hour); err != nil {
		t.Fatal(err)
	}
	if !j1.Done() || !j2.Done() {
		t.Fatal("parallel jobs unfinished")
	}
	if c.Net.Messages() == 0 {
		t.Fatal("no barrier traffic")
	}
	// All four ranks of a job finish at the same instant (final barrier).
	for _, j := range c.Jobs() {
		t0 := j.Members[0].Proc.Stats().FinishedAt
		for _, m := range j.Members[1:] {
			if m.Proc.Stats().FinishedAt != t0 {
				t.Fatal("ranks finished at different times")
			}
		}
	}
}

// TestTraceRecording folds a run's DiskTransfer events into paging series
// and checks them against the disk's own accounting.
func TestTraceRecording(t *testing.T) {
	nc := tinyNode()
	nc.MemoryMB = 6
	c, _ := New(1, 1, nc, core.Orig, core.Config{})
	paging := trace.NewPaging(1, sim.Second)
	c.EnableObservability((&obs.Options{Sinks: []obs.Sink{paging}}).Build())
	c.AddJob(JobSpec{Name: "a", Behavior: smallBehavior(1100, 60), Quantum: 30 * sim.Millisecond})
	c.AddJob(JobSpec{Name: "b", Behavior: smallBehavior(1100, 60), Quantum: 30 * sim.Millisecond})
	c.BuildScheduler(gang.Options{})
	if err := c.Run(2 * sim.Hour); err != nil {
		t.Fatal(err)
	}
	rec := paging.Node(0)
	in, out := rec.Series(trace.SeriesPageInKB), rec.Series(trace.SeriesPageOutKB)
	if in.Total() == 0 || out.Total() == 0 {
		t.Fatalf("no paging recorded: in=%v out=%v", in.Total(), out.Total())
	}
	// Page traffic in the trace matches the disk's own accounting.
	ds := c.Nodes[0].Disk.Stats()
	if got, want := in.Total(), float64(ds.PagesRead)*4; got < want-1 || got > want+1 {
		t.Fatalf("trace pagein %v != disk %v", got, want)
	}
}

// TestMetricViewsReadModel pins every counter and gauge series the cluster
// registers to the model total it reads: each exposition line is that
// total rendered once, and no series is left unchecked. The two jobs share
// a name, so their barrier-wait series is the sum of both barriers.
func TestMetricViewsReadModel(t *testing.T) {
	nc := tinyNode()
	nc.MemoryMB = 6
	c, err := New(1, 2, nc, core.SOAOAIBG, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	setup := (&obs.Options{Metrics: true}).Build()
	c.EnableObservability(setup)
	beh := smallBehavior(1000, 40)
	beh.SyncEveryIter = true
	beh.MsgBytes = 4096
	for range 2 {
		if _, err := c.AddJob(JobSpec{Name: "p", Behavior: beh, Quantum: 30 * sim.Millisecond, PassWSHint: true}); err != nil {
			t.Fatal(err)
		}
	}
	s := c.BuildScheduler(gang.Options{BGWriteFraction: 0.1})
	if err := c.Run(2 * sim.Hour); err != nil {
		t.Fatal(err)
	}

	ss := s.Stats()
	want := map[string]float64{
		obs.MetricSwitches:     float64(ss.Switches),
		obs.MetricQuanta:       float64(ss.QuantaServed),
		obs.MetricJobRequeues:  float64(ss.Requeues),
		obs.MetricSimTime:      c.Eng.Now().Seconds(),
		obs.MetricEngineEvents: float64(c.Eng.Executed()),
	}
	for _, n := range c.Nodes {
		vs, ks, ds := n.VM.Stats(), n.Kernel.Stats(), n.Disk.Stats()
		for name, v := range map[string]float64{
			obs.MetricPagesIn:         float64(vs.PagesIn),
			obs.MetricPagesOut:        float64(vs.PagesOut),
			obs.MetricBGPagesOut:      float64(vs.BGPagesOut),
			obs.MetricMajorFaults:     float64(vs.MajorFaults),
			obs.MetricMinorFaults:     float64(vs.MinorFaults),
			obs.MetricReclaimPasses:   float64(vs.ReclaimPasses),
			obs.MetricPrefaultPages:   float64(ks.PrefetchedPages),
			obs.MetricBGWritePasses:   float64(ks.BGWritePasses),
			obs.MetricSwitchEvictions: float64(ks.SwitchEvictions),
			obs.MetricDiskBusySeconds: ds.BusyTime.Seconds(),
			obs.MetricDiskSeeks:       float64(ds.Seeks),
			obs.MetricDiskRetries:     float64(ds.Retries),
		} {
			want[fmt.Sprintf(`%s{node="%d"}`, name, n.ID)] = v
		}
	}
	var wait sim.Duration
	for _, j := range c.Jobs() {
		wait += j.Barrier.WaitTime()
	}
	want[obs.MetricBarrierWait+`{job="p"}`] = wait.Seconds()

	var buf bytes.Buffer
	if err := setup.Reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") || strings.HasPrefix(line, obs.MetricFaultStall) ||
			strings.HasPrefix(line, obs.MetricPageOutBatch) {
			continue
		}
		series, val, _ := strings.Cut(line, " ")
		v, ok := want[series]
		if !ok {
			t.Errorf("series %s is not a view of the model", series)
			continue
		}
		seen++
		if exp := strconv.FormatFloat(v, 'g', -1, 64); val != exp {
			t.Errorf("%s = %s, model says %s", series, val, exp)
		}
	}
	if seen != len(want) {
		t.Errorf("exposition holds %d of the %d views", seen, len(want))
	}
	if ss.Switches == 0 || c.Nodes[0].Kernel.Stats().SwitchEvictions == 0 || c.Jobs()[1].Barrier.WaitTime() == 0 {
		t.Fatalf("the run exercised no switch paging or barrier wait: %+v", ss)
	}
}

func TestRunTimeout(t *testing.T) {
	c, _ := New(1, 1, tinyNode(), core.Orig, core.Config{})
	c.AddJob(JobSpec{Name: "a", Behavior: smallBehavior(2000, 100000), Quantum: sim.Minute})
	c.BuildScheduler(gang.Options{})
	if err := c.Run(sim.Second); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
}

// TestTimeLimitMatchesBlocked pins the run's deadline as a bound of every
// touch window: a run cut short by its time limit reports the progress,
// and leaves the compute time, of the one-event-per-chunk schedule, which
// its blocked twin takes because a no-op event fires every microsecond.
func TestTimeLimitMatchesBlocked(t *testing.T) {
	const limit = 35 * sim.Millisecond // about three 10 ms iterations
	run := func(blocked bool) (string, proc.Stats) {
		c, _ := New(1, 1, tinyNode(), core.Orig, core.Config{})
		j, err := c.AddJob(JobSpec{Name: "a", Behavior: smallBehavior(2000, 50), Quantum: sim.Minute})
		if err != nil {
			t.Fatal(err)
		}
		c.BuildScheduler(gang.Options{})
		if blocked {
			var tick func()
			tick = func() {
				if c.Eng.Now() < sim.Time(limit) {
					c.Eng.ScheduleDetached(sim.Microsecond, tick)
				}
			}
			c.Eng.ScheduleDetached(0, tick)
		}
		err = c.Run(limit)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("blocked=%v: err = %v, want timeout", blocked, err)
		}
		st := j.Members[0].Proc.Stats()
		st.SkippedIterations = 0
		return err.Error(), st
	}
	freeErr, free := run(false)
	blockedErr, blocked := run(true)
	if freeErr != blockedErr || free != blocked {
		t.Fatalf("time-limited run:\nfolded   %s %+v\nunfolded %s %+v", freeErr, free, blockedErr, blocked)
	}
}

func TestSwapExhaustionSurfacesAsError(t *testing.T) {
	nc := tinyNode()
	nc.SwapMB = 1 // 256 slots
	c, _ := New(1, 1, nc, core.Orig, core.Config{})
	if _, err := c.AddJob(JobSpec{Name: "big", Behavior: smallBehavior(1000, 1), Quantum: sim.Minute}); err == nil {
		t.Fatal("oversized job accepted with tiny swap")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(1, 0, tinyNode(), core.Orig, core.Config{}); err == nil {
		t.Fatal("0 nodes accepted")
	}
	bad := tinyNode()
	bad.MemoryMB = 0
	if _, err := New(1, 1, bad, core.Orig, core.Config{}); err == nil {
		t.Fatal("0 memory accepted")
	}
	bad = tinyNode()
	bad.LockedMB = bad.MemoryMB
	if _, err := New(1, 1, bad, core.Orig, core.Config{}); err == nil {
		t.Fatal("fully locked memory accepted")
	}
	c, _ := New(1, 1, tinyNode(), core.Orig, core.Config{})
	if _, err := c.AddJob(JobSpec{Name: "x", Behavior: proc.Behavior{}, Quantum: sim.Minute}); err == nil {
		t.Fatal("invalid behavior accepted")
	}
}

func TestAddJobAfterSchedulerRejected(t *testing.T) {
	c, _ := New(1, 1, tinyNode(), core.Orig, core.Config{})
	c.AddJob(JobSpec{Name: "a", Behavior: smallBehavior(100, 1), Quantum: sim.Minute})
	c.BuildScheduler(gang.Options{})
	if _, err := c.AddJob(JobSpec{Name: "late", Behavior: smallBehavior(100, 1), Quantum: sim.Minute}); err == nil {
		t.Fatal("AddJob after BuildScheduler accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (sim.Time, int64) {
		nc := tinyNode()
		nc.MemoryMB = 6
		c, _ := New(7, 2, nc, core.SOAOAIBG, core.Config{})
		beh := smallBehavior(900, 60)
		beh.SyncEveryIter = true
		beh.MsgBytes = 1024
		c.AddJob(JobSpec{Name: "a", Behavior: beh, Quantum: 30 * sim.Millisecond, PassWSHint: true})
		c.AddJob(JobSpec{Name: "b", Behavior: beh, Quantum: 30 * sim.Millisecond, PassWSHint: true})
		c.BuildScheduler(gang.Options{})
		if err := c.Run(2 * sim.Hour); err != nil {
			t.Fatal(err)
		}
		var last sim.Time
		for _, j := range c.Jobs() {
			if j.FinishedAt() > last {
				last = j.FinishedAt()
			}
		}
		return last, c.Nodes[0].Disk.Stats().PagesRead
	}
	t1, r1 := run()
	t2, r2 := run()
	if t1 != t2 || r1 != r2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", t1, r1, t2, r2)
	}
}

func TestJobKillMidRunFailureInjection(t *testing.T) {
	// Destroying a job's processes mid-quantum must not wedge the rest.
	nc := tinyNode()
	nc.MemoryMB = 6
	c, _ := New(1, 1, nc, core.SOAOAIBG, core.Config{})
	j1, _ := c.AddJob(JobSpec{Name: "victim", Behavior: smallBehavior(1000, 100000), Quantum: 30 * sim.Millisecond})
	j2, _ := c.AddJob(JobSpec{Name: "survivor", Behavior: smallBehavior(1000, 60), Quantum: 30 * sim.Millisecond})
	s := c.BuildScheduler(gang.Options{})
	s.Start()
	c.Eng.RunFor(3 * sim.Second)
	// Kill the victim: stop its rank and report it finished.
	j1.Members[0].Proc.Stop()
	n := c.Nodes[0]
	pid := j1.Members[0].Proc.PID()
	n.Kernel.Forget(pid)
	n.VM.DestroyProcess(pid)
	s.MemberFinished(j1)
	c.Eng.Run()
	if !j2.Done() {
		t.Fatal("survivor never finished after victim was killed")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNewAllocatesNoFrameTable pins that a node's physical memory is
// counts: building a 1024 MB node (262,144 frames) allocates no per-frame
// table. Not parallel: it reads the process-wide allocation counter.
func TestNewAllocatesNoFrameTable(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := New(1, 1, NodeConfig{MemoryMB: 1024}, core.SOAOAIBG, core.Config{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(c)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("cluster.New with one 1024 MB node: %d bytes", got)
	if got >= 64<<10 {
		t.Fatalf("cluster.New with one 1024 MB node allocated %d bytes, want under 64 KiB", got)
	}
}
