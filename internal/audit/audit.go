// Package audit is the simulation-wide invariant auditor: an always-on
// cross-check of the conservation laws that the paper's four paging
// mechanisms (selective/aggressive page-out, adaptive page-in, background
// writing) all implicitly rely on. Every mechanism is a page-accounting
// transform, so a single bookkeeping slip silently skews every reproduced
// figure; the auditor verifies each law after every N simulated events and
// fails the run on the first divergence.
//
// Checking is differential: the emitting layers (internal/vm, internal/proc)
// maintain per-node shadow aggregates (internal/acct) updated O(delta) per
// state transition, and Check compares those aggregates against the model's
// own counters instead of sweeping every page table. A node whose aggregate
// version is unchanged since the last check costs nothing beyond the
// engine-clock law; this is what makes Every=1 auditing affordable. The old
// full sweep is retained as the oracle: it re-derives every counter from the
// page tables at a configurable cross-check cadence (Config.CrossEvery) and
// at quiescence, validating both the model and the shadow aggregates
// themselves — a drifting aggregate is a violation (InvAcctDrift) in its own
// right, so a bug in the delta bookkeeping cannot silently weaken the audit.
//
// The checks span every layer of a node — frame counts (internal/mem),
// address spaces (internal/vm), swap extents (internal/swap), the paging
// device (internal/disk) — plus the engine clock (internal/sim) and the
// gang scheduler (internal/gang). See DESIGN.md §9 and §14 for the
// catalogue of enforced laws and their paper rationale.
//
// Both the differential check and the full sweep are allocation-free after
// warm-up: the only scratch buffer, the sweep's pid list, is reused, so
// even Every=1 auditing only costs CPU, not garbage. Violations are rare
// and fatal, so their reports may allocate freely (formatted detail plus a
// tail of the observability ring for forensics).
package audit

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/cluster"
	"repro/internal/gang"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Invariant names, as reported in violations (and listed in DESIGN.md §9).
const (
	InvFrameConservation  = "frame-conservation"  // free + locked + mapped == total frames
	InvResidentCounter    = "resident-counter"    // resident counters match the settled bits
	InvInFlight           = "in-flight"           // no page is both settled and in flight; in flight == mapped - resident
	InvSwapAccounting     = "swap-accounting"     // sum of live regions == slots used; free list consistent
	InvWriteBackPending   = "writeback-pending"   // queued-write aggregate matches per-page counts
	InvDiskConservation   = "disk-conservation"   // submitted == completed + dropped + queued + in-service
	InvTimeMonotonic      = "time-monotonic"      // the engine clock never runs backwards
	InvGangSingleRun      = "gang-single-running" // at most one job's rank runs per node
	InvGangOutgoing       = "gang-outgoing"       // selective designation never targets the running job
	InvGangStopped        = "gang-stopped"        // a running rank never carries the stopped mark
	InvLedgerConservation = "ledger-conservation" // per-rank attribution buckets sum exactly to wall time
	InvAcctDrift          = "acct-drift"          // shadow aggregate diverged from the swept ground truth
)

// Config tunes an Auditor.
type Config struct {
	// Every is the check interval in logical engine events (<= 0 means every
	// event, matching Cluster.SetStepCheck). Logical means Engine.Executed
	// units: a touch run that the process engine fast-forwards through in one
	// physical event still advances the count by the number of events it
	// collapsed, so the check cadence — and the audit-enabled golden outputs
	// — are identical with and without fast-forwarding. Checks cannot fire
	// inside a collapsed run (the cluster's step loop checks between physical
	// events), which is sound: no state of interest changes mid-run, by the
	// fast-forward bail-out conditions (see DESIGN.md §10).
	Every int
	// CrossEvery is the full-sweep cross-check cadence, counted in Check
	// calls: every CrossEvery-th check runs the page-table sweep (the oracle)
	// instead of the differential comparison. Zero picks DefaultCrossEvery;
	// 1 sweeps on every check (oracle mode, the pre-differential behaviour);
	// negative disables periodic sweeps entirely — the oracle then runs only
	// at quiescence. Clusters without shadow aggregates (EnableAcct never
	// called) always sweep, whatever this says.
	CrossEvery int
	// Ring, when non-nil, supplies the event tail for violation reports:
	// its last TraceTail events. Attach it to the run's bus as a sink.
	Ring *obs.Ring
}

// TraceTail is how many trailing observability events a violation report
// carries.
const TraceTail = 32

// DefaultCrossEvery is the sweep cross-check cadence when Config.CrossEvery
// is zero: roughly amortises the O(pages) sweep to noise against the
// O(delta) checks between sweeps, while still bounding how long an
// aggregate could drift undetected.
const DefaultCrossEvery = 1024

// Violation is one broken invariant, caught at an event boundary. It
// implements error; the run fails fast with it.
type Violation struct {
	Invariant string      // which law broke (Inv* constant)
	Node      int         // node id, -1 for cluster-wide invariants
	PID       int         // offending process, 0 when not applicable
	VPage     int         // offending virtual page, -1 when not applicable
	Time      sim.Time    // engine clock at detection
	Detail    string      // human-readable account of the divergence
	Trace     []obs.Event // tail of the observability ring, oldest first
}

func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %s violated at %v", v.Invariant, v.Time)
	if v.Node >= 0 {
		fmt.Fprintf(&b, " on node %d", v.Node)
	}
	if v.PID > 0 {
		fmt.Fprintf(&b, " (pid %d", v.PID)
		if v.VPage >= 0 {
			fmt.Fprintf(&b, ", vpage %d", v.VPage)
		}
		b.WriteString(")")
	}
	b.WriteString(": ")
	b.WriteString(v.Detail)
	if n := len(v.Trace); n > 0 {
		fmt.Fprintf(&b, "\nlast %d events:", n)
		for _, ev := range v.Trace {
			fmt.Fprintf(&b, "\n  %v %s node=%d", ev.T, ev.Kind, ev.Node)
			if ev.PID != 0 {
				fmt.Fprintf(&b, " pid=%d", ev.PID)
			}
			if ev.Pages != 0 {
				fmt.Fprintf(&b, " pages=%d", ev.Pages)
			}
			if ev.Job != "" {
				fmt.Fprintf(&b, " job=%s", ev.Job)
			}
		}
	}
	return b.String()
}

// Auditor checks a cluster's conservation laws. Create with New (or wire in
// one call with Attach) and invoke Check at event boundaries and Final at
// quiescence.
type Auditor struct {
	c   *cluster.Cluster
	cfg Config

	checks     int64
	sweeps     int64
	violations int64

	// crossEvery is the resolved sweep cadence: n >= 1 sweeps every n-th
	// check, 0 never sweeps from Check (quiescence only).
	crossEvery int
	sinceSweep int

	// Differential state: lastVer is sized once (zero-garbage contract);
	// lastVer[i] is Nodes[i].Acct.Version as of its last check, so
	// unchanged nodes are skipped entirely.
	lastVer []uint64

	// Scratch reused across sweeps (the zero-garbage contract).
	pids []int

	prevNow   sim.Time // engine clock at the previous check
	prevSteps uint64   // engine steps at the previous check
}

// New builds an Auditor over c. The cluster is inspected, never mutated.
// Differential checking engages only when every node carries a shadow
// aggregate (cluster.EnableAcct before AddJob); otherwise every check is a
// full sweep, preserving the pre-differential contract for hand-built
// clusters.
func New(c *cluster.Cluster, cfg Config) *Auditor {
	a := &Auditor{c: c, cfg: cfg}
	acctOK := len(c.Nodes) > 0
	for _, n := range c.Nodes {
		if n.Acct == nil {
			acctOK = false
			break
		}
	}
	switch {
	case !acctOK:
		a.crossEvery = 1 // no aggregates to diff: always sweep
	case cfg.CrossEvery < 0:
		a.crossEvery = 0 // differential only; oracle at quiescence
	case cfg.CrossEvery == 0:
		a.crossEvery = DefaultCrossEvery
	default:
		a.crossEvery = cfg.CrossEvery
	}
	a.lastVer = make([]uint64, len(c.Nodes))
	return a
}

// Attach builds an Auditor and installs it as the cluster's step and final
// checks, so every RunContext drive of the engine is audited every cfg.Every
// events (fail-fast) plus a full sweep at quiescence.
func Attach(c *cluster.Cluster, cfg Config) *Auditor {
	a := New(c, cfg)
	c.SetStepCheck(cfg.Every, a.checkDue)
	c.SetFinalCheck(a.Final)
	return a
}

// Checks reports how many checks (differential or sweep) have run.
func (a *Auditor) Checks() int64 { return a.checks }

// Sweeps reports how many of those checks were full page-table sweeps.
func (a *Auditor) Sweeps() int64 { return a.sweeps }

// Violations reports how many checks failed (at most one per Check call —
// checks stop at the first broken law).
func (a *Auditor) Violations() int64 { return a.violations }

// fail stamps the shared fields of a violation and returns it as an error.
func (a *Auditor) fail(v *Violation) error {
	v.Time = a.c.Eng.Now()
	if a.cfg.Ring != nil {
		tail := a.cfg.Ring.Events()
		if len(tail) > TraceTail {
			tail = tail[len(tail)-TraceTail:]
		}
		v.Trace = tail
	}
	a.violations++
	return v
}

// Check runs one audit pass and returns the first violation found, or nil.
// Most passes are differential — per-node shadow aggregates against the
// model's own counters, skipping nodes untouched since the last pass; every
// crossEvery-th pass is the full page-table sweep instead. Call only at
// event boundaries (between engine steps): mid-event the model's books are
// legitimately in motion.
func (a *Auditor) Check() error { return a.checkDue(1) }

// checkDue runs the n checks that fall due at one event boundary, where a
// fast-forwarded step stands for several logical events. Nothing runs
// between them, so they would all see one state and give one verdict:
// each is counted, the sweep cadence advances by n, and the pass runs
// once — the sweep when the cadence falls due among them (each due sweep
// counted), the differential comparison otherwise.
func (a *Auditor) checkDue(n int) error {
	a.checks += int64(n)
	if err := a.checkEngine(); err != nil {
		return err
	}
	if a.crossEvery > 0 {
		a.sinceSweep += n
		if a.sinceSweep >= a.crossEvery {
			a.sweeps += int64(a.sinceSweep/a.crossEvery - 1)
			a.sinceSweep %= a.crossEvery
			return a.sweep()
		}
	}
	return a.checkDelta()
}

// Final runs the full-sweep oracle unconditionally. The cluster invokes it
// at quiescence, so every run ends with the aggregates validated against
// the page tables even when CrossEvery disabled periodic sweeps.
func (a *Auditor) Final() error {
	a.checks++
	if err := a.checkEngine(); err != nil {
		return err
	}
	a.sinceSweep = 0
	return a.sweep()
}

// sweep is the oracle pass: re-derive every counter from the page tables
// (and the shadow aggregates against those derivations), then the gang and
// ledger laws.
func (a *Auditor) sweep() error {
	a.sweeps++
	for i, n := range a.c.Nodes {
		if err := a.checkNode(n); err != nil {
			return err
		}
		if n.Acct != nil {
			a.lastVer[i] = n.Acct.Version
		}
	}
	if err := a.checkGang(); err != nil {
		return err
	}
	return a.checkLedgers()
}

// checkDelta compares each touched node's shadow aggregate against the
// model's own counters — O(1) per node plus O(procs) for the resident sum,
// and nothing beyond the version test for nodes whose aggregate version is
// unchanged (as at every check after the first at a fast-forwarded
// boundary, which stands for several logical events). The per-page law
// (no page both settled and in flight) and the ledger laws stay with the
// sweep: such bugs are persistent, so sweep-cadence detection loses only
// latency, not coverage.
func (a *Auditor) checkDelta() error {
	for i, n := range a.c.Nodes {
		cnt := n.Acct
		if cnt.Version == a.lastVer[i] {
			continue
		}
		a.lastVer[i] = cnt.Version

		// L1 — frame conservation from the shadow's mapped count.
		phys := n.VM.Phys()
		if free, locked := phys.NumFree(), phys.LockedFrames(); free+locked+cnt.Mapped != phys.NumFrames() {
			return a.fail(&Violation{
				Invariant: InvFrameConservation, Node: n.ID, VPage: -1,
				Detail: fmt.Sprintf("free %d + locked %d + mapped %d != %d frames (leaked or double-counted frames)",
					free, locked, cnt.Mapped, phys.NumFrames()),
			})
		}
		// L2 — resident and in-flight splits of the mapped population.
		if res := n.VM.ResidentSum(); res != cnt.Resident {
			return a.fail(&Violation{
				Invariant: InvResidentCounter, Node: n.ID, VPage: -1,
				Detail: fmt.Sprintf("resident counters sum to %d but transition accounting says %d", res, cnt.Resident),
			})
		}
		if cnt.InFlight < 0 || cnt.InFlight != cnt.Mapped-cnt.Resident {
			return a.fail(&Violation{
				Invariant: InvInFlight, Node: n.ID, VPage: -1,
				Detail: fmt.Sprintf("in-flight %d != mapped %d - resident %d", cnt.InFlight, cnt.Mapped, cnt.Resident),
			})
		}
		if cnt.Dirty < 0 || cnt.Dirty > cnt.Resident {
			return a.fail(&Violation{
				Invariant: InvResidentCounter, Node: n.ID, VPage: -1,
				Detail: fmt.Sprintf("dirty count %d outside [0, resident %d]", cnt.Dirty, cnt.Resident),
			})
		}
		// L3 — write-back queue aggregate.
		if got := n.VM.PendingWriteBacks(); got != cnt.WBPending {
			return a.fail(&Violation{
				Invariant: InvWriteBackPending, Node: n.ID, VPage: -1,
				Detail: fmt.Sprintf("aggregate pending write-backs %d but transition accounting says %d", got, cnt.WBPending),
			})
		}
		// L4 — swap slots covered by live regions.
		if used := n.Swap.Used(); used != cnt.RegionSlots {
			return a.fail(&Violation{
				Invariant: InvSwapAccounting, Node: n.ID, VPage: -1,
				Detail: fmt.Sprintf("live regions cover %d slots but the allocator says %d are used (slot leak)",
					cnt.RegionSlots, used),
			})
		}
		// L5 — disk conservation is already an O(1) counter identity.
		if err := a.checkDisk(n); err != nil {
			return err
		}
		// G1-G4 — gang laws from the run gauge: at most one rank runs, it
		// belongs to the scheduler's current job, it is not marked stopped,
		// and the selective designation never targets it (nor a dead pid).
		if cnt.RunCount < 0 || cnt.RunCount > 1 {
			return a.fail(&Violation{
				Invariant: InvGangSingleRun, Node: n.ID, VPage: -1,
				Detail: fmt.Sprintf("%d ranks running on one node", cnt.RunCount),
			})
		}
		if cnt.RunCount == 1 {
			var running *gang.Job
			if sched := a.c.Scheduler(); sched != nil {
				running = sched.Running()
			}
			if running == nil || running.Members[i].Proc.PID() != cnt.RunPID {
				return a.fail(&Violation{
					Invariant: InvGangSingleRun, Node: n.ID, PID: cnt.RunPID, VPage: -1,
					Detail: fmt.Sprintf("pid %d running but the scheduler says %s holds the cluster",
						cnt.RunPID, runningName(running)),
				})
			}
			if n.Kernel.IsStopped(cnt.RunPID) {
				return a.fail(&Violation{
					Invariant: InvGangStopped, Node: n.ID, PID: cnt.RunPID, VPage: -1,
					Detail: "running rank still carries the stopped mark (its evictions would feed adaptive page-in)",
				})
			}
		}
		if out := n.VM.Outgoing(); out != 0 {
			if n.VM.Process(out) == nil {
				return a.fail(&Violation{
					Invariant: InvGangOutgoing, Node: n.ID, PID: out, VPage: -1,
					Detail: "selective designation names a dead process",
				})
			}
			if cnt.RunCount == 1 && out == cnt.RunPID && n.VM.NumProcesses() > 1 {
				return a.fail(&Violation{
					Invariant: InvGangOutgoing, Node: n.ID, PID: out, VPage: -1,
					Detail: "selective page-out designates the running process while other address spaces are live",
				})
			}
		}
	}
	return nil
}

// checkDisk enforces disk conservation: every submitted request is
// completed, dropped by a crash Reset, still queued, or the one in service.
// (Reads/Writes count at service start, so they are not part of this
// identity.)
func (a *Auditor) checkDisk(n *cluster.Node) error {
	submitted, completed, dropped := n.Disk.Requests()
	inService := int64(0)
	if n.Disk.Busy() {
		inService = 1
	}
	if submitted != completed+dropped+int64(n.Disk.QueueLen())+inService {
		return a.fail(&Violation{
			Invariant: InvDiskConservation, Node: n.ID, VPage: -1,
			Detail: fmt.Sprintf("submitted %d != completed %d + dropped %d + queued %d + in-service %d",
				submitted, completed, dropped, n.Disk.QueueLen(), inService),
		})
	}
	return nil
}

// checkEngine enforces time monotonicity on the cluster's engine: the clock
// of a discrete-event simulation may never retreat, and no pending event
// may be in the past.
func (a *Auditor) checkEngine() error {
	eng := a.c.Eng
	now := eng.Now()
	if now < a.prevNow {
		return a.fail(&Violation{
			Invariant: InvTimeMonotonic, Node: -1, VPage: -1,
			Detail: fmt.Sprintf("engine 0 clock ran backwards: %v after %v", now, a.prevNow),
		})
	}
	// A check at the boundary the previous one saw (the quiescence sweep
	// right after the last step's checks, say): while no event fires and
	// the clock holds, the engine can queue nothing before now, so the
	// queue head the previous check verified still passes.
	steps := eng.Steps()
	if steps == a.prevSteps && now == a.prevNow && a.checks > 1 {
		return nil
	}
	a.prevNow, a.prevSteps = now, steps
	if at, ok := eng.NextEventTime(); ok && at < now {
		return a.fail(&Violation{
			Invariant: InvTimeMonotonic, Node: -1, VPage: -1,
			Detail: fmt.Sprintf("engine 0 pending event at %v is before now %v", at, now),
		})
	}
	return nil
}

// checkNode re-derives one node's memory, swap and disk accounting from the
// page tables and compares it against every cached counter — including the
// node's shadow aggregate, whose drift from this ground truth is itself a
// violation (InvAcctDrift): the sweep is the oracle that keeps the cheap
// differential checks honest.
func (a *Auditor) checkNode(n *cluster.Node) error {
	phys := n.VM.Phys()
	a.pids = n.VM.AppendPIDs(a.pids[:0])
	mappedTotal := 0
	residentTotal := 0
	dirtyTotal := 0
	wbPending := 0
	var regionSlots int64
	for _, pid := range a.pids {
		as := n.VM.Process(pid)
		mapped, res, dirty, wb, err := a.sweepPages(n, as)
		if err != nil {
			return err
		}
		dirtyTotal += dirty
		wbPending += wb
		if got := as.PendingWriteBacks(); got != wb {
			return a.fail(&Violation{
				Invariant: InvWriteBackPending, Node: n.ID, PID: pid, VPage: -1,
				Detail: fmt.Sprintf("pending write-back counter %d but per-page counts sum to %d", got, wb),
			})
		}
		if res != as.Resident() {
			return a.fail(&Violation{
				Invariant: InvResidentCounter, Node: n.ID, PID: pid, VPage: -1,
				Detail: fmt.Sprintf("resident counter %d but the page table holds %d settled pages",
					as.Resident(), res),
			})
		}
		mappedTotal += mapped
		residentTotal += res
		r := as.Region()
		if r.N != as.NumPages() || r.Start < 0 || int64(r.Start)+int64(r.N) > n.Swap.Capacity() {
			return a.fail(&Violation{
				Invariant: InvSwapAccounting, Node: n.ID, PID: pid, VPage: -1,
				Detail: fmt.Sprintf("swap region [%d,+%d) does not cover the %d-page footprint within capacity %d",
					r.Start, r.N, as.NumPages(), n.Swap.Capacity()),
			})
		}
		regionSlots += int64(r.N)
	}

	// Frame conservation: every frame is free, wired, or held by exactly
	// one page of a live process. A frame taken and never mapped, or not
	// released when its page went (a leak), makes the sum fall short; a
	// page mapped without a frame taken for it, or a frame released while
	// its page is still mapped, makes it overshoot.
	if free, locked := phys.NumFree(), phys.LockedFrames(); free+locked+mappedTotal != phys.NumFrames() {
		return a.fail(&Violation{
			Invariant: InvFrameConservation, Node: n.ID, VPage: -1,
			Detail: fmt.Sprintf("free %d + locked %d + mapped %d != %d frames (leaked or double-counted frames)",
				free, locked, mappedTotal, phys.NumFrames()),
		})
	}

	// The VM's O(1) resident aggregate (the differential auditor's hot-path
	// comparand) must match the page tables too.
	if got := n.VM.ResidentSum(); got != residentTotal {
		return a.fail(&Violation{
			Invariant: InvResidentCounter, Node: n.ID, VPage: -1,
			Detail: fmt.Sprintf("resident aggregate %d but page tables hold %d settled pages", got, residentTotal),
		})
	}

	// Swap accounting: the extent allocator's own books must balance, and
	// the sum of live per-process regions must equal the used-slot counter —
	// a region surviving DestroyProcess (slot leak) shows up here.
	if err := n.Swap.Validate(); err != nil {
		return a.fail(&Violation{
			Invariant: InvSwapAccounting, Node: n.ID, VPage: -1,
			Detail: err.Error(),
		})
	}
	if used := n.Swap.Used(); used != regionSlots {
		return a.fail(&Violation{
			Invariant: InvSwapAccounting, Node: n.ID, VPage: -1,
			Detail: fmt.Sprintf("live regions cover %d slots but the allocator says %d are used (slot leak)",
				regionSlots, used),
		})
	}

	if got := n.VM.PendingWriteBacks(); got != wbPending {
		return a.fail(&Violation{
			Invariant: InvWriteBackPending, Node: n.ID, VPage: -1,
			Detail: fmt.Sprintf("aggregate pending write-backs %d but per-page counts sum to %d", got, wbPending),
		})
	}

	if err := a.checkDisk(n); err != nil {
		return err
	}

	// Shadow-aggregate drift: each field of the node's transition-maintained
	// aggregate must equal the value just re-derived from the page tables.
	// Any mismatch means the differential checks were comparing against a
	// corrupted baseline — fatal, whichever side is right.
	if cnt := n.Acct; cnt != nil {
		drift := func(field string, got, want int64) error {
			return a.fail(&Violation{
				Invariant: InvAcctDrift, Node: n.ID, VPage: -1,
				Detail: fmt.Sprintf("shadow %s is %d but the page tables derive %d", field, got, want),
			})
		}
		switch {
		case cnt.Mapped != mappedTotal:
			return drift("mapped", int64(cnt.Mapped), int64(mappedTotal))
		case cnt.Resident != residentTotal:
			return drift("resident", int64(cnt.Resident), int64(residentTotal))
		case cnt.InFlight != mappedTotal-residentTotal:
			return drift("in-flight", int64(cnt.InFlight), int64(mappedTotal-residentTotal))
		case cnt.Dirty != dirtyTotal:
			return drift("dirty", int64(cnt.Dirty), int64(dirtyTotal))
		case cnt.WBPending != wbPending:
			return drift("wb-pending", int64(cnt.WBPending), int64(wbPending))
		case cnt.RegionSlots != regionSlots:
			return drift("region-slots", cnt.RegionSlots, regionSlots)
		}
	}
	return nil
}

// sweepPages walks one address space's page table: a bitmap word at a
// time it checks that no page is both settled and in flight, and counts
// the mapped (settled or in flight), resident (settled) and dirty pages;
// then it sums the queued write-backs page by page.
func (a *Auditor) sweepPages(n *cluster.Node, as *vm.AddressSpace) (mapped, res, dirty, wb int, err error) {
	for wi := range (as.NumPages() + 63) / 64 {
		settled, inFlight, dirtyW := as.PageWords(wi)
		if both := settled & inFlight; both != 0 {
			return 0, 0, 0, 0, a.fail(&Violation{
				Invariant: InvInFlight, Node: n.ID, PID: as.PID(), VPage: wi<<6 + bits.TrailingZeros64(both),
				Detail: "page both settled and in flight",
			})
		}
		mapped += bits.OnesCount64(settled | inFlight)
		res += bits.OnesCount64(settled)
		dirty += bits.OnesCount64(settled & dirtyW)
	}
	for vp := range as.NumPages() {
		wb += as.PendingWrites(vp)
	}
	return mapped, res, dirty, wb, nil
}

// checkGang enforces the scheduling invariants: at most one job's rank runs
// per node, a running rank never carries the kernel's stopped mark, and the
// selective page-out designation never targets the running process while a
// stopped process' pages are available. It also validates the run gauge of
// each node's shadow aggregate against the per-rank running flags.
func (a *Auditor) checkGang() error {
	sched := a.c.Scheduler()
	if sched == nil {
		return nil
	}
	running := sched.Running()
	for i, n := range a.c.Nodes {
		runningPID := 0
		for _, j := range sched.Jobs() {
			m := &j.Members[i]
			if !m.Proc.Running() {
				continue
			}
			if runningPID != 0 {
				return a.fail(&Violation{
					Invariant: InvGangSingleRun, Node: n.ID, PID: m.Proc.PID(), VPage: -1,
					Detail: fmt.Sprintf("rank of job %q running alongside pid %d", j.Name, runningPID),
				})
			}
			runningPID = m.Proc.PID()
			if running == nil || j != running {
				return a.fail(&Violation{
					Invariant: InvGangSingleRun, Node: n.ID, PID: runningPID, VPage: -1,
					Detail: fmt.Sprintf("rank of job %q running but the scheduler says %s holds the cluster",
						j.Name, runningName(running)),
				})
			}
			if m.Kernel.IsStopped(runningPID) {
				return a.fail(&Violation{
					Invariant: InvGangStopped, Node: n.ID, PID: runningPID, VPage: -1,
					Detail: "running rank still carries the stopped mark (its evictions would feed adaptive page-in)",
				})
			}
		}
		if cnt := n.Acct; cnt != nil {
			wantRun := 0
			if runningPID != 0 {
				wantRun = 1
			}
			if cnt.RunCount != wantRun {
				return a.fail(&Violation{
					Invariant: InvAcctDrift, Node: n.ID, VPage: -1,
					Detail: fmt.Sprintf("shadow run count is %d but %d ranks hold running flags", cnt.RunCount, wantRun),
				})
			}
			if wantRun == 1 && cnt.RunPID != runningPID {
				return a.fail(&Violation{
					Invariant: InvAcctDrift, Node: n.ID, PID: runningPID, VPage: -1,
					Detail: fmt.Sprintf("shadow run pid is %d but pid %d holds the running flag", cnt.RunPID, runningPID),
				})
			}
		}
		out := n.VM.Outgoing()
		if out == 0 {
			continue
		}
		if n.VM.Process(out) == nil {
			return a.fail(&Violation{
				Invariant: InvGangOutgoing, Node: n.ID, PID: out, VPage: -1,
				Detail: "selective designation names a dead process",
			})
		}
		// The running job being its own selective victim defeats §3.1 —
		// except in the degenerate sole-process case, where every reclaim
		// path can only take that process' pages anyway.
		if out == runningPID && n.VM.NumProcesses() > 1 {
			return a.fail(&Violation{
				Invariant: InvGangOutgoing, Node: n.ID, PID: out, VPage: -1,
				Detail: "selective page-out designates the running process while other address spaces are live",
			})
		}
	}
	return nil
}

// checkLedgers enforces ledger conservation: every rank's attribution
// buckets (plus the in-progress segment) sum exactly to the wall time
// since the rank's creation — no simulated microsecond is lost or counted
// twice — and a finished rank's ledger froze exactly at its finish time.
// Ledger laws run at sweep cadence only: a broken ledger stays broken (the
// buckets never re-balance on their own), so sweep-cadence detection trades
// only latency, never coverage.
func (a *Auditor) checkLedgers() error {
	sched := a.c.Scheduler()
	if sched == nil {
		return nil
	}
	// Conservation holds at any instant at or after a ledger's last
	// transition, so the sweep reconciles at the current clock.
	now := a.c.Eng.Now()
	for _, j := range sched.Jobs() {
		for i := range j.Members {
			p := j.Members[i].Proc
			led := p.Ledger()
			if led == nil {
				continue
			}
			if err := led.Check(now); err != nil {
				return a.fail(&Violation{
					Invariant: InvLedgerConservation, Node: i, PID: p.PID(), VPage: -1,
					Detail: fmt.Sprintf("job %q: %v", j.Name, err),
				})
			}
			if p.Done() != led.Done() {
				return a.fail(&Violation{
					Invariant: InvLedgerConservation, Node: i, PID: p.PID(), VPage: -1,
					Detail: fmt.Sprintf("job %q: rank done=%v but ledger frozen=%v", j.Name, p.Done(), led.Done()),
				})
			}
			if p.Done() && led.FrozenAt() != p.Stats().FinishedAt {
				return a.fail(&Violation{
					Invariant: InvLedgerConservation, Node: i, PID: p.PID(), VPage: -1,
					Detail: fmt.Sprintf("job %q: ledger froze at %v but the rank finished at %v",
						j.Name, led.FrozenAt(), p.Stats().FinishedAt),
				})
			}
		}
	}
	return nil
}

func runningName(j *gang.Job) string {
	if j == nil {
		return "no job"
	}
	return fmt.Sprintf("job %q", j.Name)
}
