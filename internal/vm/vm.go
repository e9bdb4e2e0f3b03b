package vm

import (
	"fmt"
	"sort"

	"repro/internal/acct"
	"repro/internal/disk"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/swap"
)

// Config tunes the paging machinery. Zero-valued fields take defaults from
// DefaultConfig.
type Config struct {
	// ReadAhead is the page-group size read on a fault. Linux 2.2 used 16
	// pages (64 KiB), the value the paper's §3.3 discusses.
	ReadAhead int
	// MaxIOPages caps the pages moved in a single disk transaction.
	MaxIOPages int
	// ZeroFillCost is the CPU cost of materialising a demand-zero page.
	ZeroFillCost sim.Duration
	// FaultOverhead is the fixed CPU cost of entering the fault handler.
	FaultOverhead sim.Duration
	// AgeStart / AgeAdvance / AgeMax parameterise Linux 2.2-style page
	// aging: a newly resident page starts at AgeStart; each clock sweep
	// adds AgeAdvance to referenced pages (capped at AgeMax) and subtracts
	// one from unreferenced pages; only age-0 pages are evictable by the
	// default policy. Aging is what gives a faulting process's fresh pages
	// a grace period while a stopped process's pages decay into victims.
	AgeStart   int
	AgeAdvance int
	AgeMax     int
	// ClusterOut enables blind block page-out (VM/HPO-style, the classic
	// technique the paper's related work contrasts with): every victim the
	// default policy picks is expanded with up to ClusterOut-1 contiguous
	// cold neighbours so write-backs move in blocks. Unlike the paper's
	// gang-aware mechanisms it has no idea which process is outgoing.
	ClusterOut int
}

// DefaultConfig mirrors Linux 2.2 defaults on the paper's hardware.
func DefaultConfig() Config {
	return Config{
		ReadAhead:     16,
		MaxIOPages:    1024,
		ZeroFillCost:  2 * sim.Microsecond,
		FaultOverhead: 5 * sim.Microsecond,
		AgeStart:      2,
		AgeAdvance:    4,
		AgeMax:        8,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.ReadAhead <= 0 {
		c.ReadAhead = d.ReadAhead
	}
	if c.MaxIOPages <= 0 {
		c.MaxIOPages = d.MaxIOPages
	}
	if c.ZeroFillCost <= 0 {
		c.ZeroFillCost = d.ZeroFillCost
	}
	if c.FaultOverhead <= 0 {
		c.FaultOverhead = d.FaultOverhead
	}
	if c.AgeStart <= 0 {
		c.AgeStart = d.AgeStart
	}
	if c.AgeAdvance <= 0 {
		c.AgeAdvance = d.AgeAdvance
	}
	if c.AgeMax <= 0 {
		c.AgeMax = d.AgeMax
	}
}

// Policy selects the victim-selection algorithm used by reclaim.
type Policy int

const (
	// PolicyDefault is the Linux 2.2 behaviour: sweep the process with the
	// largest resident set, honouring clock reference bits.
	PolicyDefault Policy = iota
	// PolicySelective takes victims from the designated outgoing process,
	// oldest first, falling back to PolicyDefault only when the outgoing
	// process has no resident pages left (paper §3.1, Figure 2).
	PolicySelective
)

func (p Policy) String() string {
	switch p {
	case PolicyDefault:
		return "default"
	case PolicySelective:
		return "selective"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Stats aggregates VM activity for one node.
type Stats struct {
	MajorFaults   int64 // faults that performed disk I/O
	MinorFaults   int64 // faults satisfied without I/O (incl. in-flight hits)
	ZeroFills     int64 // demand-zero pages materialised
	PagesIn       int64 // pages read from swap
	PagesOut      int64 // pages written to swap by reclaim / switch page-out
	BGPagesOut    int64 // pages written by the background writer
	WastedBGWrite int64 // bg-written pages dirtied again before eviction
	ReclaimPasses int64
	FaultStall    sim.Duration // total time processes spent blocked in faults
}

// ProcStats aggregates per-process paging activity.
type ProcStats struct {
	MajorFaults int64
	MinorFaults int64
	PagesIn     int64
	PagesOut    int64
	ZeroFills   int64
	FaultStall  sim.Duration
}

// AddressSpace is one process's paged memory image.
type AddressSpace struct {
	pid      int
	numPages int
	frames   []mem.FrameID // frame per vpage, NoFrame when not resident
	onDisk   []bool        // a write-back COMPLETED: the swap slot holds a valid copy
	bgClean  []bool        // cleaned by bg writer since last dirtying (waste detection)
	inFlight []bool        // read from swap in progress
	// wbPending counts queued-but-incomplete write-backs per page. A page is
	// swap-backed when onDisk is set OR a write is pending; only a completed
	// write flips onDisk, so a crash that drops queued writes (Disk.Reset)
	// cannot leave a page claiming a swap copy that never reached the device.
	wbPending []uint16
	region    swap.Region
	resident  int

	// dirtyMap has one bit per vpage, set exactly when the page is resident
	// (frame mapped, no read in flight) and its frame is dirty. It lets the
	// background writer enumerate the dirty set directly instead of scanning
	// the whole address space every pass. Maintained at the clean/dirty
	// transitions: write touches set it, write-back selection and dirty
	// eviction clear it, and a crash clears the whole map (pages in flight
	// are never dirty — only non-resident pages are read in, onto fresh
	// clean frames). Validate cross-checks it against the frame table.
	dirtyMap []uint64
	// dirtyBound holds one time per dirtyMap word: an upper bound on the
	// LastUse of that word's dirty pages. The background writer visits
	// words youngest bound first and stops once no remaining word can hold
	// a page younger than its kept set (DESIGN §16). Only the touch paths
	// stamp LastUse on resident pages, and they raise the bound of every
	// word they touch; the writer tightens the words it scans. Cleaning,
	// eviction and crashes leave bounds stale-high, which stays sound.
	dirtyBound []sim.Time

	// passGen, passTaken and passCount are the reclaim pass set for this
	// address space: the pages the pass numbered passGen has selected (one
	// bit per vpage) and how many. A stale generation means an empty set;
	// the bitmap is cleared when a new pass first adds to it.
	passGen   uint64
	passTaken []uint64
	passCount int

	// Working-set estimation: distinct pages touched this quantum.
	touchGen   []uint32
	curGen     uint32
	touched    int
	prevWS     int // distinct pages touched during the previous quantum
	everRanQtm bool

	waiters map[int][]func() // fault waiters per in-flight vpage

	// Attribution (nil / unallocated unless the run enabled the ledger):
	// led is the owning rank's wall-time ledger, stopped mirrors the
	// kernel's descheduled flag, and swEvict marks pages evicted while the
	// process was stopped — a fault on such a page is switch overhead, not
	// an ordinary fault stall. Bits are cleared when the page lands back in
	// memory (or the node crashes, which loses the image outright).
	led     *obs.RankLedger
	stopped bool
	swEvict []bool

	stats ProcStats
}

// PID reports the process id.
func (as *AddressSpace) PID() int { return as.pid }

// NumPages reports the footprint in pages.
func (as *AddressSpace) NumPages() int { return as.numPages }

// Resident reports how many pages are currently in memory.
func (as *AddressSpace) Resident() int { return as.resident }

// Stats returns a copy of the per-process counters.
func (as *AddressSpace) Stats() ProcStats { return as.stats }

// IsResident reports whether vpage has a frame.
func (as *AddressSpace) IsResident(vpage int) bool {
	return as.frames[vpage] != mem.NoFrame && !as.inFlight[vpage]
}

// OnDisk reports whether vpage is swap-backed: its slot holds a valid copy,
// or a queued write-back will make it one (the fault path treats both the
// same, as the real kernel does — a fault on a page with a queued write
// reads the slot behind that write).
func (as *AddressSpace) OnDisk(vpage int) bool { return as.backed(vpage) }

// backed reports whether vpage's swap slot holds, or has a queued write that
// will produce, a valid copy. This is the behaviour-visible predicate the
// fault and read-ahead paths use; onDisk alone only says a write completed.
func (as *AddressSpace) backed(vpage int) bool {
	return as.onDisk[vpage] || as.wbPending[vpage] > 0
}

// setDirtyBit and clearDirtyBit maintain the dirty-page bitmap; callers
// invoke them exactly at the clean/dirty transitions of resident pages.
func (as *AddressSpace) setDirtyBit(vp int)   { as.dirtyMap[vp>>6] |= 1 << (uint(vp) & 63) }
func (as *AddressSpace) clearDirtyBit(vp int) { as.dirtyMap[vp>>6] &^= 1 << (uint(vp) & 63) }

// raiseDirtyBound lifts the bound of every dirty-map word overlapping
// [lo, hi) to at. The touch paths call it once per call, read or write,
// after stamping LastUse = at on those pages.
func (as *AddressSpace) raiseDirtyBound(lo, hi int, at sim.Time) {
	if lo >= hi {
		return
	}
	bounds := as.dirtyBound[lo>>6 : (hi-1)>>6+1]
	for i, b := range bounds {
		if b < at {
			bounds[i] = at
		}
	}
}

// Frame reports the frame mapped at vpage (NoFrame when not resident).
// Audit accessor.
func (as *AddressSpace) Frame(vpage int) mem.FrameID { return as.frames[vpage] }

// InFlight reports whether a swap read of vpage is in progress. Audit
// accessor.
func (as *AddressSpace) InFlight(vpage int) bool { return as.inFlight[vpage] }

// PendingWrites reports how many queued write-backs target vpage's slot.
// Audit accessor.
func (as *AddressSpace) PendingWrites(vpage int) int { return int(as.wbPending[vpage]) }

// WriteCompleted reports whether a write-back of vpage has completed, i.e.
// the slot's copy is valid even if the node crashes right now. Audit
// accessor; the fault path uses OnDisk (which also counts pending writes).
func (as *AddressSpace) WriteCompleted(vpage int) bool { return as.onDisk[vpage] }

// Region reports the process's contiguous swap reservation. Audit accessor.
func (as *AddressSpace) Region() swap.Region { return as.region }

// VM is one node's paging subsystem.
type VM struct {
	eng   *sim.Engine
	phys  *mem.Physical
	dsk   *disk.Disk
	space *swap.Space
	cfg   Config

	procs map[int]*AddressSpace

	policy   Policy
	outgoing int // pid whose pages selective reclaim targets; 0 = none

	// clock hands for the default policy's per-process sweeps
	hands map[int]int
	// swapCnt holds the per-process scan counters of the current swap_out
	// cycle (Linux 2.2 rotates scan effort across processes with these).
	swapCnt map[int]int

	// OnPageOut, when non-nil, observes every page evicted from memory.
	// The adaptive page-in recorder (package core) subscribes here.
	OnPageOut func(pid, vpage int)

	// obs, when non-nil, receives structured events and metric updates
	// from the fault, reclaim and write-back paths.
	obs *obs.NodeObs

	// acct, when non-nil, receives O(delta) conservation postings at every
	// page-state transition; the differential auditor compares it against
	// the model's own counters. Nil outside audited runs, so the plain path
	// pays one predictable branch per transition.
	acct *acct.Counts

	// residentSum aggregates the per-process resident counters, maintained
	// at the same sites that mutate them, so ResidentSum is O(1) on the
	// auditor's hot path. The full sweep re-derives it from the page tables.
	residentSum int

	// epoch is bumped by Crash; deferred fault-path closures (zero-fill and
	// read-in retries) from an older epoch must not touch post-crash state.
	epoch uint64

	// wbPendingPages aggregates every address space's wbPending entries; the
	// auditor cross-checks this incremental counter against a recomputation.
	wbPendingPages int

	// drain, while non-nil, tags write-backs submitted by the current
	// synchronous switch-time page-out so the page-out-drain span can
	// close when the last of them reaches the device. Bracketed by
	// BeginDrain/EndDrain around the kernel's AdaptivePageOut work.
	drain *drainTrack

	stats Stats

	// Scratch buffers reused across hot-path calls. All reclaim, eviction
	// and read-in work is synchronous within one engine event, so a single
	// set per VM suffices; groupFree alone is a pool because fault page
	// groups live until their disk transfers complete.
	pass          reclaimPass
	victimScratch []victim
	agedScratch   []aged
	wordScratch   []dirtyWord
	scanScratch   []int
	slotScratch   []disk.Slot
	runScratch    []disk.Run
	splitScratch  []disk.Run
	batchScratch  []dirtyBatch
	batchOf       map[*AddressSpace]int
	groupFree     [][]int
}

// getGroup takes a page-group buffer from the pool (empty, capacity kept).
func (v *VM) getGroup() []int {
	if n := len(v.groupFree); n > 0 {
		g := v.groupFree[n-1]
		v.groupFree[n-1] = nil
		v.groupFree = v.groupFree[:n-1]
		return g[:0]
	}
	return make([]int, 0, 64)
}

// putGroup returns a page-group buffer to the pool once no transfer or
// retry closure references it any longer.
func (v *VM) putGroup(g []int) {
	if cap(g) > 0 {
		v.groupFree = append(v.groupFree, g)
	}
}

// drainTrack follows one switch-time page-out drain: every write-back
// request submitted while it is current counts as pending, and the span
// closes when the last completes (or immediately at EndDrain if the
// eviction queued no writes).
type drainTrack struct {
	tracer  *obs.Tracer
	span    obs.SpanID
	pending int
	pages   int
	armed   bool
}

func (d *drainTrack) complete(now sim.Time) {
	d.pending--
	if d.armed && d.pending == 0 {
		d.tracer.End(now, d.span, d.pages)
	}
}

// BeginDrain makes span the current page-out drain: write-backs submitted
// until EndDrain parent to it and hold it open until they land.
func (v *VM) BeginDrain(t *obs.Tracer, span obs.SpanID) {
	if t == nil || span == 0 {
		return
	}
	v.drain = &drainTrack{tracer: t, span: span}
}

// EndDrain closes the synchronous part of the drain; the span ends now if
// no write-back is outstanding, else when the last one completes.
func (v *VM) EndDrain(now sim.Time) {
	d := v.drain
	if d == nil {
		return
	}
	v.drain = nil
	d.armed = true
	if d.pending == 0 {
		d.tracer.End(now, d.span, d.pages)
	}
}

// New assembles a VM over the given physical memory, disk and swap space.
func New(eng *sim.Engine, phys *mem.Physical, d *disk.Disk, space *swap.Space, cfg Config) *VM {
	cfg.fillDefaults()
	return &VM{
		eng:     eng,
		phys:    phys,
		dsk:     d,
		space:   space,
		cfg:     cfg,
		procs:   make(map[int]*AddressSpace),
		hands:   make(map[int]int),
		swapCnt: make(map[int]int),
		batchOf: make(map[*AddressSpace]int),
	}
}

// Config returns the effective configuration.
func (v *VM) Config() Config { return v.cfg }

// Phys exposes the physical memory (read-mostly; used by policies/tests).
func (v *VM) Phys() *mem.Physical { return v.phys }

// Disk exposes the paging device.
func (v *VM) Disk() *disk.Disk { return v.dsk }

// Stats returns a copy of the node-wide counters.
func (v *VM) Stats() Stats { return v.stats }

// SetObs attaches the node's observability instruments (nil to detach).
func (v *VM) SetObs(o *obs.NodeObs) { v.obs = o }

// SetAcct attaches the node's differential accounting gauge. It must be
// attached before any process exists: the shadow counters start at zero and
// are maintained purely from transitions.
func (v *VM) SetAcct(c *acct.Counts) {
	if c != nil && len(v.procs) > 0 {
		panic("vm: SetAcct after processes were created")
	}
	v.acct = c
}

// SetRankLedger attaches pid's attribution ledger and allocates the
// switch-eviction bitmap that refines fault stalls into switch overhead.
func (v *VM) SetRankLedger(pid int, led *obs.RankLedger) {
	as := v.mustProc(pid)
	as.led = led
	if led != nil && as.swEvict == nil {
		as.swEvict = make([]bool, as.numPages)
	}
}

// NoteStopped mirrors the kernel's descheduled flag onto the address
// space; evictions of a stopped process's pages are switch-time paging.
func (v *VM) NoteStopped(pid int, stopped bool) {
	if as := v.procs[pid]; as != nil {
		as.stopped = stopped
	}
	if v.acct != nil {
		// The stopped mark feeds the gang-stopped law; bump the version so
		// the differential auditor re-evaluates it at the next boundary.
		v.acct.Touch()
	}
}

// SetVictimPolicy selects the reclaim policy.
func (v *VM) SetVictimPolicy(p Policy) { v.policy = p }

// VictimPolicy reports the active policy.
func (v *VM) VictimPolicy() Policy { return v.policy }

// SetOutgoing designates the process whose pages PolicySelective targets.
// Pass 0 to clear.
func (v *VM) SetOutgoing(pid int) {
	if pid != 0 {
		if _, ok := v.procs[pid]; !ok {
			panic(fmt.Sprintf("vm: SetOutgoing(%d): no such process", pid))
		}
	}
	v.outgoing = pid
	if v.acct != nil {
		v.acct.Touch() // outgoing designation feeds the gang-outgoing law
	}
}

// Outgoing reports the currently designated outgoing process (0 if none).
func (v *VM) Outgoing() int { return v.outgoing }

// NewProcess creates an address space of numPages, reserving a contiguous
// swap region so the image can always be paged out.
func (v *VM) NewProcess(pid, numPages int) (*AddressSpace, error) {
	if pid <= 0 {
		panic(fmt.Sprintf("vm: pid must be positive, got %d", pid))
	}
	if numPages <= 0 {
		panic(fmt.Sprintf("vm: numPages must be positive, got %d", numPages))
	}
	if _, ok := v.procs[pid]; ok {
		return nil, fmt.Errorf("vm: pid %d already exists", pid)
	}
	region, err := v.space.Reserve(numPages)
	if err != nil {
		return nil, fmt.Errorf("vm: creating pid %d: %w", pid, err)
	}
	words := (numPages + 63) / 64
	as := &AddressSpace{
		pid:        pid,
		numPages:   numPages,
		frames:     make([]mem.FrameID, numPages),
		onDisk:     make([]bool, numPages),
		bgClean:    make([]bool, numPages),
		inFlight:   make([]bool, numPages),
		wbPending:  make([]uint16, numPages),
		dirtyMap:   make([]uint64, words),
		dirtyBound: make([]sim.Time, words),
		passTaken:  make([]uint64, words),
		region:     region,
		touchGen:   make([]uint32, numPages),
		curGen:     1,
		waiters:    make(map[int][]func()),
	}
	for i := range as.frames {
		as.frames[i] = mem.NoFrame
	}
	v.procs[pid] = as
	if v.acct != nil {
		v.acct.RegionReserved(int64(region.N))
	}
	return as, nil
}

// Process returns the address space for pid, or nil.
func (v *VM) Process(pid int) *AddressSpace { return v.procs[pid] }

// NumProcesses reports how many address spaces are live.
func (v *VM) NumProcesses() int { return len(v.procs) }

// AppendPIDs appends the live pids to dst in ascending order and returns it
// like append. The auditor reuses one buffer across sweeps so enumerating
// processes allocates nothing after warm-up.
func (v *VM) AppendPIDs(dst []int) []int {
	n := len(dst)
	for pid := range v.procs {
		dst = append(dst, pid)
	}
	sort.Ints(dst[n:])
	return dst
}

// DestroyProcess releases all frames and the swap region of pid. Pending
// fault waiters are dropped; in-flight disk transfers complete harmlessly.
func (v *VM) DestroyProcess(pid int) {
	as := v.mustProc(pid)
	// The teardown deltas for the accounting shadow are tallied from the
	// frame table itself as it is dismantled, not from the model's counters.
	mapped, res, inFl, dirtied := 0, 0, 0, 0
	for vp, fid := range as.frames {
		if fid != mem.NoFrame {
			mapped++
			if as.inFlight[vp] {
				inFl++
			} else {
				res++
				if v.phys.Frame(fid).Dirty {
					dirtied++
				}
			}
			v.phys.Release(fid)
			as.frames[vp] = mem.NoFrame
		}
	}
	v.residentSum -= as.resident
	as.resident = 0
	as.waiters = nil
	for vp := range as.inFlight {
		as.inFlight[vp] = false
	}
	// Queued write-backs of this process are orphaned: their completions are
	// ignored (completeWrite checks process identity), so drop them from the
	// aggregate now. The swap region is released below; the disk may still
	// write the old slots, which is harmless — the slots carry no identity
	// once the region is gone.
	wb := 0
	for vp := range as.wbPending {
		if as.wbPending[vp] > 0 {
			wb += int(as.wbPending[vp])
			v.wbPendingPages -= int(as.wbPending[vp])
			as.wbPending[vp] = 0
		}
	}
	if v.acct != nil {
		v.acct.Dropped(mapped, res, inFl, dirtied, wb, int64(as.region.N))
	}
	v.space.ReleaseRegion(as.region)
	delete(v.procs, pid)
	delete(v.hands, pid)
	delete(v.swapCnt, pid)
	if v.outgoing == pid {
		v.outgoing = 0
	}
}

// Crash models a node power loss for every live process: all resident
// frames are dropped without write-back (dirty data is lost; valid swap
// copies survive, so previously paged-out data remains readable), in-flight
// reads are abandoned, and every blocked fault waiter is resumed so the
// owning process can re-fault once the node is back. The page-out hook is
// NOT invoked for crash-dropped pages — they were lost, not paged out, so
// adaptive page-in must not learn them. Callers must Reset the paging disk
// in the same instant, before any engine event runs.
func (v *VM) Crash() {
	v.epoch++
	// Deterministic iteration order: ascending pid.
	pids := make([]int, 0, len(v.procs))
	for pid := range v.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	var resumes []func()
	for _, pid := range pids {
		as := v.procs[pid]
		mapped, res, inFl, dirtied, wb := 0, 0, 0, 0, 0
		for vp, fid := range as.frames {
			if fid != mem.NoFrame {
				mapped++
				if as.inFlight[vp] {
					inFl++
				} else {
					res++
					if v.phys.Frame(fid).Dirty {
						dirtied++
					}
				}
				v.phys.Release(fid)
				as.frames[vp] = mem.NoFrame
			}
			as.inFlight[vp] = false
			as.bgClean[vp] = false
			// Queued and in-flight write-backs die with the disk queue
			// (Disk.Reset drops them), so the data never reached the slot:
			// clear the pending counts WITHOUT setting onDisk. A page whose
			// only copy was in a dropped write loses its backing and will
			// demand-zero re-fault — before this, onDisk was set at queue
			// time and a crash could "resurrect" a swap copy that was never
			// written. Slots with an earlier completed write keep onDisk: a
			// valid (if stale) copy really is on the device.
			if as.wbPending[vp] > 0 {
				wb += int(as.wbPending[vp])
				v.wbPendingPages -= int(as.wbPending[vp])
				as.wbPending[vp] = 0
			}
		}
		if v.acct != nil {
			// Regions survive a reboot, so no slot delta.
			v.acct.Dropped(mapped, res, inFl, dirtied, wb, 0)
		}
		clear(as.dirtyMap)
		if as.swEvict != nil {
			// Crash-dropped pages were lost, not paged out by a switch;
			// their refaults are ordinary fault stalls.
			clear(as.swEvict)
		}
		v.residentSum -= as.resident
		as.resident = 0
		// Collect waiters in vpage order, then fire after all bookkeeping is
		// consistent: a resumed process may immediately re-fault.
		vps := make([]int, 0, len(as.waiters))
		for vp := range as.waiters {
			vps = append(vps, vp)
		}
		sort.Ints(vps)
		for _, vp := range vps {
			resumes = append(resumes, as.waiters[vp]...)
		}
		as.waiters = make(map[int][]func())
		delete(v.hands, pid)
		delete(v.swapCnt, pid)
	}
	v.outgoing = 0
	for _, r := range resumes {
		r()
	}
}

func (v *VM) mustProc(pid int) *AddressSpace {
	as := v.procs[pid]
	if as == nil {
		panic(fmt.Sprintf("vm: no process %d", pid))
	}
	return as
}

// BeginQuantum rolls the working-set estimator for pid: the count of
// distinct pages touched in the ending quantum becomes the estimate used by
// aggressive page-out (paper §3.2: "the kernel obtains the working set size
// using the page references during the incoming process' previous time
// quanta").
func (v *VM) BeginQuantum(pid int) {
	as := v.mustProc(pid)
	if as.everRanQtm {
		as.prevWS = as.touched
	}
	as.everRanQtm = true
	as.touched = 0
	as.curGen++
	if as.curGen == 0 {
		// The generation counter wrapped: stale touchGen entries from 2^32
		// quanta ago would now compare equal to curGen and read as touched
		// this quantum. Clear the stamps and restart from generation 1.
		for i := range as.touchGen {
			as.touchGen[i] = 0
		}
		as.curGen = 1
	}
}

// WSEstimate reports the kernel's working-set estimate for pid in pages.
// Before the process has completed a quantum it falls back to the smaller
// of the footprint and what physical memory could hold above the high
// watermark.
func (v *VM) WSEstimate(pid int) int {
	as := v.mustProc(pid)
	if as.prevWS > 0 {
		return as.prevWS
	}
	avail := v.phys.NumFrames() - v.phys.LockedFrames() - v.phys.FreeHigh()
	if avail < 0 {
		avail = 0
	}
	if as.numPages < avail {
		return as.numPages
	}
	return avail
}

// PendingWriteBacks reports the node-wide count of queued-but-incomplete
// write-back pages; the auditor cross-checks it against a per-page
// recomputation.
func (v *VM) PendingWriteBacks() int { return v.wbPendingPages }

// ResidentSum reports the total of the per-process resident counters. The
// differential auditor compares it against the accounting shadow every time
// the node's books move, so it is a maintained aggregate rather than a map
// walk; the full sweep validates it against the page tables.
func (v *VM) ResidentSum() int { return v.residentSum }

// Validate cross-checks VM bookkeeping against the frame table. Unlike the
// structured auditor in internal/audit (which grew out of this hook and
// supersedes it for whole-simulation checking), it is safe to call at any
// event boundary: pages with an in-flight read own a frame but are not yet
// counted resident.
func (v *VM) Validate() error {
	if err := v.phys.Validate(); err != nil {
		return err
	}
	pending := 0
	for pid, as := range v.procs {
		res, mapped := 0, 0
		for vp, fid := range as.frames {
			if fid == mem.NoFrame {
				if as.inFlight[vp] {
					return fmt.Errorf("vm: pid %d vpage %d in flight without a frame", pid, vp)
				}
				continue
			}
			mapped++
			if !as.inFlight[vp] {
				res++
			}
			f := v.phys.Frame(fid)
			if f.PID != pid || int(f.VPage) != vp {
				return fmt.Errorf("vm: frame %d labelled (%d,%d), PTE says (%d,%d)",
					fid, f.PID, f.VPage, pid, vp)
			}
		}
		if res != as.resident {
			return fmt.Errorf("vm: pid %d resident counter %d, PTEs say %d", pid, as.resident, res)
		}
		for vp := 0; vp < as.numPages; vp++ {
			var f *mem.Frame
			if fid := as.frames[vp]; fid != mem.NoFrame && !as.inFlight[vp] {
				f = v.phys.Frame(fid)
			}
			want := f != nil && f.Dirty
			if got := as.dirtyMap[vp>>6]&(1<<(uint(vp)&63)) != 0; got != want {
				return fmt.Errorf("vm: pid %d vpage %d dirty bit %v, frame table says %v", pid, vp, got, want)
			}
			if want && f.LastUse > as.dirtyBound[vp>>6] {
				return fmt.Errorf("vm: pid %d dirty-map word %d bound %d is below the LastUse %d of its dirty vpage %d",
					pid, vp>>6, as.dirtyBound[vp>>6], f.LastUse, vp)
			}
		}
		if v.phys.Resident(pid) != mapped {
			return fmt.Errorf("vm: pid %d phys resident %d, PTEs say %d", pid, v.phys.Resident(pid), mapped)
		}
		for vp := range as.wbPending {
			pending += int(as.wbPending[vp])
		}
	}
	if pending != v.wbPendingPages {
		return fmt.Errorf("vm: write-back pending counter %d, pages say %d", v.wbPendingPages, pending)
	}
	return nil
}
