// Package gangsched is a simulation library reproducing "Adaptive Memory
// Paging for Efficient Gang Scheduling of Parallel Applications" (Ryu,
// Pachapurkar, Fong; IBM Research Report / IPPS 2004).
//
// It models a cluster of machines — physical memory with Linux 2.2-style
// watermarks and page aging, a paging disk, swap space, demand paging with
// grouped read-ahead — gang-scheduled between parallel jobs, and implements
// the paper's four adaptive paging mechanisms: selective page-out,
// aggressive page-out, adaptive page-in and background writing.
//
// # Quick start
//
// Describe a cluster and jobs with a Spec and call Run:
//
//	spec := gangsched.Spec{
//		Nodes:    1,
//		MemoryMB: 1024,
//		LockedMB: 786,
//		Policy:   "so/ao/ai/bg",
//		Quantum:  5 * time.Minute,
//		Jobs: []gangsched.JobSpec{
//			{Name: "a", Workload: gangsched.NPB(gangsched.LU, gangsched.ClassB, 1)},
//			{Name: "b", Workload: gangsched.NPB(gangsched.LU, gangsched.ClassB, 1)},
//		},
//	}
//	res, err := gangsched.Run(spec)
//
// The result carries per-job completion times and per-node paging
// statistics. For the paper's experiments use the runners in
// internal/expt via cmd/figures, or the compare helpers here.
package gangsched

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gang"
	"repro/internal/live"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// App names an NPB2 benchmark program (LU, SP, CG, IS, MG).
type App = workload.App

// Class is an NPB data class (A, B, C).
type Class = workload.Class

// Re-exported workload identifiers.
const (
	LU = workload.LU
	SP = workload.SP
	CG = workload.CG
	IS = workload.IS
	MG = workload.MG

	ClassA = workload.ClassA
	ClassB = workload.ClassB
	ClassC = workload.ClassC
)

// Behavior describes a job's per-rank memory reference pattern; it is the
// process model's native type (see internal/proc).
type Behavior = proc.Behavior

// Segment is one touch range of a Behavior.
type Segment = proc.Segment

// Result is the outcome of a run (see internal/metrics).
type Result = metrics.RunResult

// NPB returns the calibrated synthetic model of a NAS NPB2 program as a
// Behavior plus the memory size (MB) the paper's experiments leave
// available on each node. It panics on unknown configurations; the modelled
// set is the paper's: serial class B for all five programs, 2- and 4-rank
// parallel variants per Figure 8.
func NPB(app workload.App, class workload.Class, ranks int) (Behavior, int) {
	m := workload.MustGet(app, class, ranks)
	return m.Behavior(), m.AvailMB
}

// TryNPB is NPB without the panic: it reports an error for
// configurations outside the modelled set.
func TryNPB(app workload.App, class workload.Class, ranks int) (Behavior, int, error) {
	m, err := workload.Get(app, class, ranks)
	if err != nil {
		return Behavior{}, 0, err
	}
	return m.Behavior(), m.AvailMB, nil
}

// JobSpec places one job on every node of the cluster.
type JobSpec struct {
	Name     string
	Workload Behavior
	// Quantum overrides Spec.Quantum for this job when positive.
	Quantum time.Duration
	// HintWorkingSet passes the behaviour's working-set size through the
	// adaptive-paging kernel API, as the paper's scheduler does. When
	// false the kernel estimates it from the previous quantum.
	HintWorkingSet bool
}

// Spec describes a whole experiment.
type Spec struct {
	Seed  int64
	Nodes int

	MemoryMB int // physical memory per node (default 1024)
	LockedMB int // memory wired down to force over-commit

	// FreeMinPages / FreeHighPages override the per-node reclaim
	// watermarks; zero picks Linux-2.2-style defaults scaled to memory
	// size. When both are set, min must be strictly below high — equal
	// watermarks make every reclaim burst start and stop on the same
	// boundary, which the invariant auditor would immediately flag as a
	// wedged free-list.
	FreeMinPages  int
	FreeHighPages int

	// ClusterOut, when > 1, enables blind block page-out: every reclaim
	// victim is expanded with up to ClusterOut-1 contiguous cold
	// neighbours (see vm.Config.ClusterOut). Zero leaves the default
	// (no clustering); values below 1 are rejected by Validate.
	ClusterOut int

	// Policy is the adaptive paging combination in the paper's notation:
	// "orig", "ai", "so", "so/ao", "so/ao/bg" or "so/ao/ai/bg".
	Policy string

	// Batch runs the jobs back to back instead of gang-scheduling them.
	Batch bool

	Quantum         time.Duration // default 5 minutes
	BGWriteFraction float64       // default 0.1 (last 10% of the quantum)

	Jobs []JobSpec

	// TimeLimit bounds simulated time (default 24 h).
	TimeLimit time.Duration
	// RecordTraces enables 1-second paging-activity recorders per node.
	RecordTraces bool

	// Observe enables the observability layer for the run: structured
	// events (via sinks or an in-memory buffer) and/or a live metrics
	// registry, surfaced on RunHandle. Nil disables the layer entirely —
	// the zero-overhead default.
	Observe *obs.Options

	// Faults, when non-nil, injects the described fault plan: node
	// crashes with cold restarts, transient disk errors and latency
	// spikes, and straggler nodes. Injection is deterministic under Seed
	// and never touches the model RNG, so a nil plan changes nothing.
	Faults *FaultsSpec

	// Audit, when non-nil, attaches the invariant auditor: the run's
	// conservation laws (internal/audit, DESIGN.md §9) are re-derived
	// every AuditSpec.Every engine events and the run fails fast with a
	// *Violation on the first divergence. Nil disables auditing — the
	// zero-overhead default (one nil check per engine step).
	Audit *AuditSpec

	// HTTP, when non-empty, serves the live run observer on this listen
	// address (":0" for an ephemeral port) for the duration of the run:
	// /metrics (Prometheus text), /events (NDJSON stream) and /progress
	// (per-job attribution). The server stays up after the run completes —
	// surfaced as RunHandle.Observer, which the caller must Close.
	HTTP string
	// OnHTTP, when set alongside HTTP, is called with the bound address
	// once the observer is listening (before the run starts).
	OnHTTP func(addr string) `json:"-"`
}

// AuditSpec tunes the invariant auditor (see internal/audit).
type AuditSpec struct {
	// Every is the check interval in engine events. 0 or 1 audits after
	// every event — the recommended always-on setting now that checks are
	// differential (O(delta) per event, full sweeps only every CrossEvery
	// checks); larger values trade detection latency for speed. Negative
	// values are rejected by Validate.
	Every int
	// CrossEvery is the full-sweep oracle cadence in audit checks: every
	// CrossEvery-th check re-derives all counters from the page tables and
	// validates the differential aggregates themselves (audit.InvAcctDrift).
	// 0 picks audit.DefaultCrossEvery, 1 sweeps on every check (the
	// pre-differential behaviour), negative sweeps only at quiescence.
	CrossEvery int
	// TraceTail bounds the observability-event tail attached to a
	// violation report (0 picks the default of 32; negative disables).
	TraceTail int
}

// Violation is a broken conservation law reported by the auditor; run
// errors match it under errors.As.
type Violation = audit.Violation

// Validate checks the spec without running it. Run and RunContext call
// it first, so malformed specs yield errors instead of panics from deep
// inside the model. A zero Nodes count is valid (it defaults to 1);
// negative counts, negative durations, unknown policies, a locked-memory
// size at or above the node's memory, and invalid workloads or fault
// plans are not.
func (s Spec) Validate() error {
	if len(s.Jobs) == 0 {
		return errors.New("gangsched: spec has no jobs")
	}
	if s.Nodes < 0 {
		return fmt.Errorf("gangsched: negative node count %d", s.Nodes)
	}
	if _, err := core.ParseFeatures(s.Policy); err != nil {
		return err
	}
	if s.MemoryMB < 0 {
		return fmt.Errorf("gangsched: negative memory size %d MB", s.MemoryMB)
	}
	memMB := s.MemoryMB
	if memMB == 0 {
		memMB = cluster.DefaultNodeConfig().MemoryMB
	}
	if s.LockedMB < 0 || s.LockedMB >= memMB {
		return fmt.Errorf("gangsched: locked memory %d MB outside [0, %d)", s.LockedMB, memMB)
	}
	if s.FreeMinPages < 0 || s.FreeHighPages < 0 {
		return fmt.Errorf("gangsched: negative reclaim watermark (min %d, high %d)",
			s.FreeMinPages, s.FreeHighPages)
	}
	if s.FreeMinPages > 0 && s.FreeHighPages > 0 && s.FreeMinPages >= s.FreeHighPages {
		return fmt.Errorf("gangsched: freepages.min %d must be strictly below freepages.high %d",
			s.FreeMinPages, s.FreeHighPages)
	}
	if frames := mem.PagesFromMB(memMB); s.FreeHighPages > frames {
		return fmt.Errorf("gangsched: freepages.high %d exceeds the %d frames of a %d MB node",
			s.FreeHighPages, frames, memMB)
	}
	if s.ClusterOut != 0 && s.ClusterOut < 1 {
		return fmt.Errorf("gangsched: cluster-out %d must be at least 1 page (0 leaves the default)",
			s.ClusterOut)
	}
	if s.Audit != nil && s.Audit.Every < 0 {
		return fmt.Errorf("gangsched: negative audit interval %d", s.Audit.Every)
	}
	if s.Quantum < 0 {
		return fmt.Errorf("gangsched: negative quantum %v", s.Quantum)
	}
	if s.TimeLimit < 0 {
		return fmt.Errorf("gangsched: negative time limit %v", s.TimeLimit)
	}
	if s.BGWriteFraction < 0 || s.BGWriteFraction >= 1 {
		return fmt.Errorf("gangsched: background-write fraction %v outside [0, 1)", s.BGWriteFraction)
	}
	for i, j := range s.Jobs {
		if j.Name == "" {
			return fmt.Errorf("gangsched: job %d has no name", i)
		}
		if j.Quantum < 0 {
			return fmt.Errorf("gangsched: job %q has negative quantum %v", j.Name, j.Quantum)
		}
		if err := j.Workload.Validate(); err != nil {
			return fmt.Errorf("gangsched: job %q: %w", j.Name, err)
		}
	}
	nodes := s.Nodes
	if nodes == 0 {
		nodes = 1
	}
	return s.Faults.plan().Validate(nodes)
}

// RunHandle gives access to the built cluster after Run for callers that
// want traces or raw component statistics.
type RunHandle struct {
	Result Result
	// Traces holds one recorder per node when Spec.RecordTraces was set.
	Traces []*trace.Recorder
	// Events holds the buffered event stream when Spec.Observe asked for
	// KeepEvents (at most EventCap most-recent events).
	Events []obs.Event
	// Metrics is the run's metrics registry when Spec.Observe asked for
	// Metrics; render it with WriteProm or walk it with Snapshot.
	Metrics *obs.Registry
	// AuditChecks counts the invariant sweeps performed when Spec.Audit
	// was set (every sweep passed, or the run would have failed with a
	// *Violation instead of producing a handle).
	AuditChecks int64
	// Observer is the live HTTP observer when Spec.HTTP was set; it keeps
	// serving (post-run state) until the caller Closes it.
	Observer *live.Observer

	// tracer backs Spans; retained so the export copy is deferred until a
	// caller actually wants the spans.
	tracer *obs.Tracer
}

// Spans materializes the tracer's retained causal spans when Spec.Observe
// asked for Trace (at most SpanCap most-recent closed spans, every
// still-open span closed at end of run; nil otherwise). The copy out of
// the tracer's compact retention happens here, on demand, so runs that
// never read their spans don't pay for the export. Export the result with
// WriteChromeTrace.
func (h *RunHandle) Spans() []obs.Span {
	if h == nil {
		return nil
	}
	return h.tracer.Spans()
}

// SpanCount reports how many closed spans the run retained, without
// materializing them.
func (h *RunHandle) SpanCount() int {
	if h == nil {
		return 0
	}
	return h.tracer.Count()
}

// WriteChromeTrace re-exports the Chrome trace_event exporter: it renders
// spans (e.g. RunHandle.Spans) as a JSON document loadable by Perfetto or
// chrome://tracing.
var WriteChromeTrace = obs.WriteChromeTrace

// ErrTimeLimit reports that the simulated TimeLimit expired with jobs
// still unfinished. Returned errors match it under errors.Is and are a
// *TimeLimitError (carrying per-job progress) under errors.As.
var ErrTimeLimit = cluster.ErrTimeout

// TimeLimitError is the typed form of ErrTimeLimit.
type TimeLimitError = cluster.TimeLimitError

// JobProgress is one job's completion state inside a TimeLimitError.
type JobProgress = cluster.JobProgress

// Run executes the experiment to completion and returns its result.
func Run(spec Spec) (Result, error) {
	return RunContext(context.Background(), spec)
}

// RunContext is Run with cooperative cancellation: the context is
// checked at every simulation-step boundary. When it is cancelled the
// partial result is still returned — with Interrupted set and per-job
// progress in Jobs — alongside the context's error.
func RunContext(ctx context.Context, spec Spec) (Result, error) {
	h, err := RunDetailedContext(ctx, spec)
	if h == nil {
		return Result{}, err
	}
	return h.Result, err
}

// RunDetailed is Run with access to per-node traces.
func RunDetailed(spec Spec) (*RunHandle, error) {
	return RunDetailedContext(context.Background(), spec)
}

// RunDetailedContext is RunDetailed with cooperative cancellation; see
// RunContext for the partial-result contract.
func RunDetailedContext(ctx context.Context, spec Spec) (*RunHandle, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Nodes <= 0 {
		spec.Nodes = 1
	}
	features, err := core.ParseFeatures(spec.Policy)
	if err != nil {
		return nil, err
	}
	nc := cluster.DefaultNodeConfig()
	if spec.MemoryMB > 0 {
		nc.MemoryMB = spec.MemoryMB
	}
	nc.LockedMB = spec.LockedMB
	nc.FreeMinPages = spec.FreeMinPages
	nc.FreeHighPages = spec.FreeHighPages
	nc.VM.ClusterOut = spec.ClusterOut
	if spec.RecordTraces {
		nc.TraceBin = sim.Second
	}
	cl, err := cluster.New(spec.Seed, spec.Nodes, nc, features, core.Config{})
	if err != nil {
		return nil, err
	}
	if spec.Audit != nil {
		// Shadow aggregates for differential auditing; must precede AddJob
		// so every address space is accounted from birth. The aggregates
		// never feed back into the model, so audited runs stay byte-identical
		// to unaudited ones.
		cl.EnableAcct()
	}
	// The auditor wants a short event tail for violation forensics: force
	// the always-on flight-recorder ring (Options.Flight), which doubles as
	// that tail. Observability never feeds back into the model, so the extra
	// sink cannot perturb an otherwise identical run. The live observer's
	// /events stream rides along the same way.
	obsOpts := spec.Observe
	copyOpts := func() *obs.Options {
		var o obs.Options
		if obsOpts != nil {
			o = *obsOpts
		}
		o.Sinks = append([]obs.Sink(nil), o.Sinks...)
		return &o
	}
	if spec.Audit != nil {
		tail := spec.Audit.TraceTail
		if tail == 0 {
			tail = audit.DefaultTraceTail
		}
		if tail > 0 {
			o := copyOpts()
			o.Flight = true
			obsOpts = o
		}
	}
	var stream *obs.StreamSink
	if spec.HTTP != "" {
		stream = obs.NewStreamSink()
		o := copyOpts()
		o.Sinks = append(o.Sinks, stream)
		obsOpts = o
	}
	setup := obsOpts.Build()
	cl.EnableObservability(setup)
	defQuantum := 5 * time.Minute
	if spec.Quantum > 0 {
		defQuantum = spec.Quantum
	}
	for _, j := range spec.Jobs {
		q := defQuantum
		if j.Quantum > 0 {
			q = j.Quantum
		}
		if _, err := cl.AddJob(cluster.JobSpec{
			Name:       j.Name,
			Behavior:   j.Workload,
			Quantum:    sim.DurationOf(q),
			PassWSHint: j.HintWorkingSet,
		}); err != nil {
			return nil, err
		}
	}
	mode := gang.Gang
	if spec.Batch {
		mode = gang.Batch
	}
	cl.BuildScheduler(gang.Options{Mode: mode, BGWriteFraction: spec.BGWriteFraction})
	if plan := spec.Faults.plan(); !plan.Empty() {
		if _, err := faults.Attach(cl, plan, spec.Seed); err != nil {
			return nil, err
		}
	}
	var auditor *audit.Auditor
	if spec.Audit != nil {
		auditor = audit.Attach(cl, audit.Config{
			Every:      spec.Audit.Every,
			CrossEvery: spec.Audit.CrossEvery,
			TraceTail:  spec.Audit.TraceTail,
			Ring:       setup.Flight(),
		})
	}
	var observer *live.Observer
	if spec.HTTP != "" {
		observer, err = live.Start(spec.HTTP, cl, setup, stream)
		if err != nil {
			return nil, err
		}
		cl.SetStepDrain(observer.Requests())
		if spec.OnHTTP != nil {
			spec.OnHTTP(observer.Addr())
		}
	}
	limit := 24 * time.Hour
	if spec.TimeLimit > 0 {
		limit = spec.TimeLimit
	}
	runErr := cl.RunContext(ctx, sim.DurationOf(limit))
	if observer != nil {
		// The simulation has stopped (completed or failed): hand the
		// observer direct read access so queued and future requests are
		// served without the step loop.
		observer.Quiesce()
	}
	interrupted := runErr != nil &&
		(errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded))
	if runErr != nil && !interrupted {
		if observer != nil {
			_ = observer.Close()
		}
		return nil, runErr
	}
	if setup != nil {
		// Interrupted lifecycles (an epoch whose prefetch never landed, a
		// fault in flight at the time limit) still show in the export.
		setup.Tracer.CloseAll(cl.Eng.Now())
	}
	label := features.String()
	if spec.Batch {
		label = "batch"
	}
	h := &RunHandle{Result: metrics.Collect(cl, label), Observer: observer}
	h.Result.Interrupted = interrupted
	if spec.RecordTraces {
		for _, n := range cl.Nodes {
			h.Traces = append(h.Traces, n.Rec)
		}
	}
	if setup != nil {
		h.Events = setup.Events()
		h.Metrics = setup.Reg
		h.tracer = setup.Tracer
	}
	if auditor != nil {
		h.AuditChecks = auditor.Checks()
	}
	return h, runErr
}

// RunAll executes the independent specs concurrently on a bounded worker
// pool (parallel <= 0 means one worker per CPU, 1 forces serial) and
// returns their results in input order. Each run owns its engine, RNG and
// cluster, so concurrency cannot perturb outcomes: for any parallel
// setting the returned slice is identical to running the specs in a loop.
// On failure the error of the lowest failing index is returned — the same
// one a serial loop would have hit first. It is the sweep primitive behind
// Compare, cmd/figures and the internal experiment runners.
func RunAll(ctx context.Context, parallel int, specs []Spec) ([]Result, error) {
	return runner.Map(ctx, parallel, len(specs), func(ctx context.Context, i int) (Result, error) {
		return RunContext(ctx, specs[i])
	})
}

// Comparison reports a policy against the original algorithm and a batch
// baseline on the same spec, using the paper's metrics.
type Comparison struct {
	Batch, Orig, Policy Result
	// SwitchingOverheadOrig / Policy follow §4.1:
	// (T_gang − T_batch)/T_gang.
	SwitchingOverheadOrig   float64
	SwitchingOverheadPolicy float64
	// PagingReduction is 1 − (T_policy − T_batch)/(T_orig − T_batch).
	PagingReduction float64
}

// Compare runs spec three times — batch, original policy, and spec.Policy —
// and reports the paper's overhead and reduction metrics. The three runs
// are independent and execute via RunAll with one worker per CPU; use
// CompareParallel to pick the worker count explicitly.
func Compare(spec Spec) (Comparison, error) {
	return CompareParallel(context.Background(), 0, spec)
}

// CompareParallel is Compare with explicit context and worker-pool bound
// (see RunAll for the parallel semantics).
func CompareParallel(ctx context.Context, parallel int, spec Spec) (Comparison, error) {
	var c Comparison
	b := spec
	b.Batch = true
	b.Policy = "orig"
	b.Observe = nil // observability applies to the policy run only
	o := spec
	o.Batch = false
	o.Policy = "orig"
	o.Observe = nil
	p := spec
	p.Batch = false
	results, err := RunAll(ctx, parallel, []Spec{b, o, p})
	c.Batch, c.Orig, c.Policy = results[0], results[1], results[2]
	if err != nil {
		return c, fmt.Errorf("gangsched: comparing policy %q: %w", spec.Policy, err)
	}
	c.SwitchingOverheadOrig = metrics.SwitchingOverhead(c.Orig.Makespan, c.Batch.Makespan)
	c.SwitchingOverheadPolicy = metrics.SwitchingOverhead(c.Policy.Makespan, c.Batch.Makespan)
	c.PagingReduction = metrics.PagingReduction(c.Orig.Makespan, c.Policy.Makespan, c.Batch.Makespan)
	return c, nil
}
