package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/acct"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/gang"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Series names recorded per node.
const (
	SeriesPageInKB  = "pagein_kb"
	SeriesPageOutKB = "pageout_kb"
)

// NodeConfig describes one machine.
type NodeConfig struct {
	MemoryMB int // physical memory (paper: 1024)
	LockedMB int // wired down with mlock to stress memory
	// FreeMinPages / FreeHighPages are the reclaim watermarks; zero picks
	// Linux-2.2-style defaults scaled to memory size.
	FreeMinPages  int
	FreeHighPages int
	SwapMB        int // paging space (default: 4x memory)
	Disk          disk.Params
	VM            vm.Config
	// TraceBin enables per-node paging-activity recording at this bin
	// width when positive (1s in the paper's Figure 6).
	TraceBin sim.Duration
}

// DefaultNodeConfig is the paper's machine: 1 GB memory, commodity disk.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		MemoryMB: 1024,
		Disk:     disk.DefaultParams(),
	}
}

func (nc *NodeConfig) fillDefaults() error {
	if nc.MemoryMB <= 0 {
		return fmt.Errorf("cluster: node memory must be positive, got %d MB", nc.MemoryMB)
	}
	if nc.LockedMB < 0 || nc.LockedMB >= nc.MemoryMB {
		return fmt.Errorf("cluster: locked memory %d MB outside [0, %d)", nc.LockedMB, nc.MemoryMB)
	}
	if nc.SwapMB <= 0 {
		nc.SwapMB = 4 * nc.MemoryMB
	}
	frames := mem.PagesFromMB(nc.MemoryMB)
	if nc.FreeMinPages <= 0 {
		// Linux 2.2 keeps freepages.min small in absolute terms (a few
		// hundred KB to ~1 MB) rather than a percentage of memory; large
		// watermark gaps would make every reclaim burst evict tens of MB.
		nc.FreeMinPages = frames / 1024
		if nc.FreeMinPages < 16 {
			nc.FreeMinPages = 16
		}
		if nc.FreeMinPages > 256 {
			nc.FreeMinPages = 256
		}
	}
	if nc.FreeHighPages <= 0 {
		nc.FreeHighPages = 3 * nc.FreeMinPages
	}
	if nc.FreeHighPages > frames {
		return fmt.Errorf("cluster: freepages.high %d exceeds %d frames", nc.FreeHighPages, frames)
	}
	if nc.Disk.PerPage == 0 {
		nc.Disk = disk.DefaultParams()
	}
	return nil
}

// Node is one simulated machine.
type Node struct {
	ID     int
	Phys   *mem.Physical
	Disk   *disk.Disk
	Swap   *swap.Space
	VM     *vm.VM
	Kernel *core.Kernel
	Rec    *trace.Recorder // nil unless TraceBin was set
	Obs    *obs.NodeObs    // nil unless EnableObservability was called
	Acct   *acct.Counts    // nil unless EnableAcct was called
}

// diskTracer adapts disk transfers into the node's paging-activity series.
type diskTracer struct{ rec *trace.Recorder }

func (t *diskTracer) OnTransfer(start sim.Time, d sim.Duration, pages int, write bool, _ disk.Priority) {
	name := SeriesPageInKB
	if write {
		name = SeriesPageOutKB
	}
	t.rec.Series(name).AddSpread(start, d, mem.KBFromPages(pages))
}

// Cluster is a set of nodes, a network, the jobs placed on them and the
// gang scheduler driving everything.
type Cluster struct {
	Eng   *sim.Engine
	Nodes []*Node
	Net   *mpi.Network

	jobs    []*gang.Job
	nextPID int
	sched   *gang.Scheduler
	obs     *obs.Setup

	speeds    map[int]float64 // straggler factors by node id
	down      map[int]bool    // nodes currently crashed
	faults    FaultStats
	onAllDone func()

	stepCheck  func() error // invariant check run every checkEvery steps
	checkEvery int
	finalCheck func() error // overrides stepCheck at quiescence when set

	drain <-chan func() // live-observer requests, run at step boundaries
}

// FaultStats tallies fault-recovery activity across the run.
type FaultStats struct {
	Crashes  int64 // nodes taken down
	Restarts int64 // nodes brought back up
}

// New builds a cluster of nNodes identical machines running the given
// adaptive-paging feature set, simulated serially on one engine.
func New(seed int64, nNodes int, ncfg NodeConfig, features core.Features, kcfg core.Config) (*Cluster, error) {
	if nNodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", nNodes)
	}
	if err := ncfg.fillDefaults(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(seed)
	c := &Cluster{Eng: eng, Net: mpi.DefaultNetwork(eng), nextPID: 1}
	frames := mem.PagesFromMB(ncfg.MemoryMB)
	for i := 0; i < nNodes; i++ {
		var rec *trace.Recorder
		var tracer disk.Tracer
		if ncfg.TraceBin > 0 {
			rec = trace.NewRecorder(ncfg.TraceBin)
			// Pre-create series so CSV column order is stable.
			rec.Series(SeriesPageInKB)
			rec.Series(SeriesPageOutKB)
			tracer = &diskTracer{rec}
		}
		phys := mem.New(frames, ncfg.FreeMinPages, ncfg.FreeHighPages)
		if ncfg.LockedMB > 0 {
			phys.Lock(mem.PagesFromMB(ncfg.LockedMB))
		}
		d := disk.New(eng, ncfg.Disk, tracer)
		sp := swap.New(int64(mem.PagesFromMB(ncfg.SwapMB)))
		v := vm.New(eng, phys, d, sp, ncfg.VM)
		k := core.NewKernel(eng, v, features, kcfg)
		c.Nodes = append(c.Nodes, &Node{
			ID: i, Phys: phys, Disk: d, Swap: sp, VM: v, Kernel: k, Rec: rec,
		})
	}
	return c, nil
}

// EnableAcct allocates each node's differential accounting gauge and
// attaches it to the node's VM. It must be called before any job is added:
// the shadow counters start at zero and are maintained purely from
// transitions, so pre-existing state would never be reflected. The
// differential auditor requires it; plain runs skip it and pay nothing.
func (c *Cluster) EnableAcct() {
	if len(c.jobs) > 0 || c.sched != nil {
		panic("cluster: EnableAcct after AddJob")
	}
	for _, n := range c.Nodes {
		if n.Acct == nil {
			n.Acct = &acct.Counts{}
			n.VM.SetAcct(n.Acct)
		}
	}
}

// Engines lists the cluster's event engines: the single engine every node
// and the scheduler run on.
func (c *Cluster) Engines() []*sim.Engine { return []*sim.Engine{c.Eng} }

// EnableObservability attaches the built observability plumbing to every
// node's VM, disk and kernel, installs the engine step hook that keeps the
// sim-time gauge and event-throughput counter live, and arranges for job
// barriers and the scheduler to be instrumented as they are created. Call
// between New and the first AddJob; a nil or empty setup is a no-op.
func (c *Cluster) EnableObservability(setup *obs.Setup) {
	if setup == nil || (setup.Bus == nil && setup.Reg == nil && setup.Tracer == nil && !setup.Ledger()) {
		return
	}
	if c.sched != nil {
		panic("cluster: EnableObservability after BuildScheduler")
	}
	c.obs = setup
	for _, n := range c.Nodes {
		n.Obs = obs.NewNodeObs(setup.Reg, setup.Bus, n.ID)
		n.Obs.Tracer = setup.Tracer
		n.VM.SetObs(n.Obs)
		n.Disk.SetObs(n.Obs)
		n.Kernel.SetObs(n.Obs)
	}
	if setup.Reg != nil {
		simTime := setup.Reg.Gauge(obs.MetricSimTime, "Current simulated time.", nil)
		events := setup.Reg.Counter(obs.MetricEngineEvents, "Simulation engine events fired.", nil)
		c.Eng.SetStepHook(func(now sim.Time, fired int) {
			simTime.Set(now.Seconds())
			// fired is the step's logical weight: a fast-forwarded touch
			// run counts every event it collapsed, so the throughput
			// counter is independent of collapsing.
			events.Add(float64(fired))
		})
	}
}

// Obs returns the observability setup (nil when disabled).
func (c *Cluster) Obs() *obs.Setup { return c.obs }

// JobSpec places one job across every node of the cluster.
type JobSpec struct {
	Name     string
	Behavior proc.Behavior // per-rank behaviour (already divided per node)
	Quantum  sim.Duration
	// PassWSHint makes the scheduler pass the behaviour's working-set size
	// through the kernel API, as the paper's scheduler does; otherwise the
	// kernel estimates from the previous quantum.
	PassWSHint bool
}

// AddJob creates the job's address spaces, barrier and rank engines. Call
// before BuildScheduler.
func (c *Cluster) AddJob(spec JobSpec) (*gang.Job, error) {
	if c.sched != nil {
		return nil, errors.New("cluster: AddJob after BuildScheduler")
	}
	if err := spec.Behavior.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: job %q: %w", spec.Name, err)
	}
	pid := c.nextPID
	c.nextPID++
	job := &gang.Job{Name: spec.Name, Quantum: spec.Quantum}
	if spec.PassWSHint {
		job.WSHintPages = spec.Behavior.WorkingSetPages()
	}
	var barrier *mpi.Barrier
	if spec.Behavior.SyncEveryIter {
		barrier = mpi.NewBarrier(c.Net, len(c.Nodes))
		job.Barrier = barrier
		if c.obs != nil {
			barrier.Observe(c.obs.Bus, spec.Name, c.obs.JobBarrierCounter(spec.Name))
			barrier.Trace(c.obs.Tracer)
		}
	}
	for _, n := range c.Nodes {
		if _, err := n.VM.NewProcess(pid, spec.Behavior.FootprintPages); err != nil {
			return nil, fmt.Errorf("cluster: job %q on node %d: %w", spec.Name, n.ID, err)
		}
		finish := func(*proc.Process) {
			c.sched.MemberFinished(job)
		}
		p := proc.New(c.Eng, n.VM, pid, spec.Behavior, barrier, finish)
		if n.Acct != nil {
			p.SetRunGauge(n.Acct)
		}
		if f, ok := c.speeds[n.ID]; ok {
			p.SlowFactor = f
		}
		if c.obs != nil && c.obs.Ledger() {
			led := obs.NewRankLedger(c.Eng.Now())
			p.SetLedger(led)
			n.VM.SetRankLedger(pid, led)
		}
		job.Members = append(job.Members, gang.Member{Proc: p, Kernel: n.Kernel})
	}
	c.jobs = append(c.jobs, job)
	return job, nil
}

// Jobs lists the placed jobs in creation order.
func (c *Cluster) Jobs() []*gang.Job { return c.jobs }

// BuildScheduler creates the gang scheduler over the placed jobs.
func (c *Cluster) BuildScheduler(opts gang.Options) *gang.Scheduler {
	if c.sched != nil {
		panic("cluster: BuildScheduler called twice")
	}
	if c.obs != nil && opts.Obs == nil {
		opts.Obs = obs.NewSchedObs(c.obs.Reg, c.obs.Bus)
		opts.Obs.Tracer = c.obs.Tracer
	}
	c.sched = gang.NewScheduler(c.Eng, c.jobs, opts, func() {
		if c.onAllDone != nil {
			c.onAllDone()
		}
	})
	return c.sched
}

// SetOnAllDone registers a callback fired when the last job completes
// (a fault injector uses it to cancel fault events still pending so the
// engine can drain). Call before Run; nil clears it.
func (c *Cluster) SetOnAllDone(fn func()) { c.onAllDone = fn }

// SetNodeSpeed makes node id a straggler: every rank placed on it pays
// factor× compute cost. Applies to jobs already placed and jobs added
// later; call before Run.
func (c *Cluster) SetNodeSpeed(id int, factor float64) {
	if id < 0 || id >= len(c.Nodes) {
		panic(fmt.Sprintf("cluster: SetNodeSpeed on unknown node %d", id))
	}
	if factor <= 0 {
		panic(fmt.Sprintf("cluster: SetNodeSpeed factor %v must be positive", factor))
	}
	if c.speeds == nil {
		c.speeds = make(map[int]float64)
	}
	c.speeds[id] = factor
	for _, j := range c.jobs {
		j.Members[id].Proc.SlowFactor = factor
	}
}

// NodeIsDown reports whether node id is currently crashed.
func (c *Cluster) NodeIsDown(id int) bool { return c.down[id] }

// FaultStats returns the crash/restart tallies.
func (c *Cluster) FaultStats() FaultStats { return c.faults }

// CrashNode models a fail-stop crash of node id, bringing it back after
// downtime. The running job is the victim: the scheduler stops it
// everywhere and requeues it at the rotation tail, then the node's
// adaptive-paging records, resident pages and in-flight disk traffic
// are dropped (valid swap copies survive — they are on the paging
// device, not in memory). While the node is down the whole rotation is
// parked, since every job has one rank per node. Crashing a node that
// is already down is a no-op.
func (c *Cluster) CrashNode(id int, downtime sim.Duration) {
	if id < 0 || id >= len(c.Nodes) {
		panic(fmt.Sprintf("cluster: CrashNode on unknown node %d", id))
	}
	if downtime <= 0 {
		panic(fmt.Sprintf("cluster: CrashNode downtime %v must be positive", downtime))
	}
	if c.down[id] {
		return
	}
	if c.down == nil {
		c.down = make(map[int]bool)
	}
	c.down[id] = true
	c.faults.Crashes++
	n := c.Nodes[id]
	// Flag the node's rank ledgers down before any stop/crash processing so
	// idle segments split here and faulters released by VM.Crash land their
	// idle time in CatDown, not CatQueue.
	for _, j := range c.jobs {
		j.Members[id].Proc.Ledger().SetDown(c.Eng.Now(), true)
	}
	if c.obs != nil {
		c.obs.Reg.Counter(obs.MetricNodeCrashes,
			"Fail-stop node crashes injected.",
			obs.Labels{"node": strconv.Itoa(id)}).Inc()
		c.obs.Bus.Emit(obs.Event{
			T:    c.Eng.Now(),
			Kind: obs.KindNodeDown,
			Node: id,
			Dur:  downtime,
		})
	}
	// Park the scheduler first so every rank is stopped before the
	// node's memory vanishes, then kill the node's software state: the
	// kernel module (flush lists), the VM image (resident/dirty pages,
	// with blocked faulters released so they can re-fault after the
	// restart) and the disk queue (in-flight and queued transfers).
	c.sched.Suspend()
	n.Kernel.CrashReset()
	n.VM.Crash()
	n.Disk.Reset()
	if c.obs != nil {
		c.obs.DumpFlight(c.Eng.Now())
	}
	c.Eng.ScheduleDetached(downtime, func() { c.restoreNode(id) })
}

// restoreNode cold-starts a crashed node and, once no node remains
// down, resumes the rotation from its head.
func (c *Cluster) restoreNode(id int) {
	delete(c.down, id)
	c.faults.Restarts++
	for _, j := range c.jobs {
		j.Members[id].Proc.Ledger().SetDown(c.Eng.Now(), false)
	}
	if c.obs != nil {
		c.obs.Reg.Counter(obs.MetricNodeRestarts,
			"Crashed nodes restarted after their downtime.",
			obs.Labels{"node": strconv.Itoa(id)}).Inc()
		c.obs.Bus.Emit(obs.Event{
			T:    c.Eng.Now(),
			Kind: obs.KindNodeUp,
			Node: id,
		})
	}
	if len(c.down) == 0 {
		c.sched.Resume()
	}
}

// Scheduler returns the scheduler (nil before BuildScheduler).
func (c *Cluster) Scheduler() *gang.Scheduler { return c.sched }

// SetStepCheck installs fn to run after every n-th engine step of
// RunContext (n <= 0 means after every step) and once more when the engine
// drains. A non-nil error aborts the run immediately with that error —
// the invariant auditor's fail-fast hook. Pass nil to remove; the check
// is consulted only at step boundaries, so a nil check costs one branch
// per event and nothing else.
func (c *Cluster) SetStepCheck(every int, fn func() error) {
	if every <= 0 {
		every = 1
	}
	c.checkEvery = every
	c.stepCheck = fn
}

// SetFinalCheck installs fn to run at quiescence instead of the step check:
// the differential auditor forces a full sweep there regardless of its
// cross-check phase. Nil (the default) falls back to the step check.
func (c *Cluster) SetFinalCheck(fn func() error) { c.finalCheck = fn }

// quiesceCheck is the invariant check run once when the engine drains.
func (c *Cluster) quiesceCheck() error {
	if c.finalCheck != nil {
		return c.finalCheck()
	}
	if c.stepCheck != nil {
		return c.stepCheck()
	}
	return nil
}

// SetStepDrain installs a channel of closures that RunContext executes at
// engine-step boundaries — the live observer's bridge into the otherwise
// single-threaded simulation. Each closure runs on the simulation goroutine
// between events, where it may read any cluster state race-free; it must
// not block or mutate the simulation. Pass nil to remove; a nil channel
// costs one branch per step.
func (c *Cluster) SetStepDrain(ch <-chan func()) { c.drain = ch }

// drainRequests runs every queued observer closure without blocking.
func (c *Cluster) drainRequests() {
	for {
		select {
		case fn := <-c.drain:
			if fn != nil {
				fn()
			}
		default:
			return
		}
	}
}

// ErrTimeout reports that Run hit its simulated-time limit before every job
// completed. Returned errors are a *TimeLimitError matching it under
// errors.Is, carrying per-job progress.
var ErrTimeout = errors.New("cluster: simulation timed out before all jobs finished")

// JobProgress is one job's completion state when a run is cut short.
type JobProgress struct {
	Job        string
	Done       bool
	Iterations int // slowest rank's completed iterations
	TotalIters int
}

// TimeLimitError is the typed form of ErrTimeout: the simulated-time
// budget expired with jobs still running. errors.Is(err, ErrTimeout)
// matches it; Progress reports how far each job got.
type TimeLimitError struct {
	Limit    sim.Duration
	Progress []JobProgress
}

func (e *TimeLimitError) Error() string {
	var left []string
	for _, p := range e.Progress {
		if !p.Done {
			left = append(left, fmt.Sprintf("%s %d/%d", p.Job, p.Iterations, p.TotalIters))
		}
	}
	return fmt.Sprintf("cluster: simulation timed out after %v with unfinished jobs: %s",
		e.Limit, strings.Join(left, ", "))
}

// Is makes errors.Is(err, ErrTimeout) succeed for the typed error.
func (e *TimeLimitError) Is(target error) bool { return target == ErrTimeout }

// progress snapshots every job's completion state in creation order.
func (c *Cluster) progress() []JobProgress {
	out := make([]JobProgress, 0, len(c.jobs))
	for _, j := range c.jobs {
		p := JobProgress{Job: j.Name, Done: j.Done()}
		for i, m := range j.Members {
			it := m.Proc.Iteration()
			if i == 0 || it < p.Iterations {
				p.Iterations = it
			}
			p.TotalIters = m.Proc.Behavior().Iterations
		}
		out = append(out, p)
	}
	return out
}

// Run starts the scheduler and drives the engine until every job finishes
// or limit elapses.
func (c *Cluster) Run(limit sim.Duration) error {
	return c.RunContext(context.Background(), limit)
}

// RunContext is Run with cooperative cancellation: the context is
// checked at every engine-step boundary, and ctx.Err() is returned as
// soon as it is non-nil, leaving the cluster in a consistent (if
// unfinished) state that metrics collection can still read.
func (c *Cluster) RunContext(ctx context.Context, limit sim.Duration) error {
	if c.sched == nil {
		panic("cluster: Run before BuildScheduler")
	}
	c.sched.Start()
	deadline := c.Eng.Now().Add(limit)
	// Pre-size the trace bins for the whole run so recording never
	// reallocates on the disk-transfer path.
	for _, n := range c.Nodes {
		if n.Rec != nil {
			n.Rec.Reserve(deadline)
		}
	}
	sinceCheck := uint64(0)
	lastExec := c.Eng.Executed()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if c.drain != nil {
			c.drainRequests()
		}
		at, ok := c.Eng.NextEventTime()
		if !ok {
			break
		}
		if at > deadline {
			return &TimeLimitError{Limit: limit, Progress: c.progress()}
		}
		c.Eng.Step()
		if c.stepCheck != nil {
			// Cadence is measured in logical events (sim.Engine.Executed),
			// so a fast-forwarded touch run that collapses k events into
			// one step still advances the check counter by k — and still
			// triggers the same number of sweeps, at the first event
			// boundary on or after where each would have fallen.
			exec := c.Eng.Executed()
			sinceCheck += exec - lastExec
			lastExec = exec
			for sinceCheck >= uint64(c.checkEvery) {
				sinceCheck -= uint64(c.checkEvery)
				if err := c.stepCheck(); err != nil {
					return err
				}
			}
		}
	}
	// Final sweep at quiescence, so a violation in the very last events is
	// caught even with a sparse check interval.
	if err := c.quiesceCheck(); err != nil {
		return err
	}
	for _, j := range c.jobs {
		if !j.Done() {
			return fmt.Errorf("cluster: job %q wedged (engine drained at %v)", j.Name, c.Eng.Now())
		}
	}
	return nil
}

// Validate cross-checks every node's VM bookkeeping.
func (c *Cluster) Validate() error {
	for _, n := range c.Nodes {
		if err := n.VM.Validate(); err != nil {
			return fmt.Errorf("node %d: %w", n.ID, err)
		}
	}
	return nil
}
