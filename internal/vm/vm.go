package vm

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

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

// AddressSpace is one process's paged memory image. All per-page state
// lives here, indexed by vpage: flags as bitmaps, so the touch path works
// 64 pages at a time, and times and ages as arrays (DESIGN §17).
type AddressSpace struct {
	pid      int
	numPages int
	// wbPending counts queued-but-incomplete write-backs per page. A page is
	// swap-backed when onDisk is set OR a write is pending; only a completed
	// write sets onDisk, so a crash that drops queued writes (Disk.Reset)
	// cannot leave a page claiming a swap copy that never reached the device.
	wbPending []uint16
	wbPages   int // sum of wbPending: dropImage and zeroRun skip their walks at 0
	region    swap.Region
	resident  int  // settled pages
	mapped    int  // pages holding a frame: settled plus in flight
	gone      bool // destroyed; late write completions are ignored

	// Page-state bitmaps. A page holds a frame exactly when its settled or
	// inFlight bit is set (never both); which frame is recorded nowhere,
	// because nothing depends on it. A new frame sets ref, lastUse and age
	// (mapFrames); last use and age are only read for settled pages.
	settled  []uint64 // has a frame and no read in flight: resident
	inFlight []uint64 // has a frame that a swap read is filling
	onDisk   []uint64 // a write-back COMPLETED: the swap slot holds a valid copy
	ref      []uint64 // clock reference bit
	bgClean  []uint64 // cleaned by the bg writer since last dirtied
	touchedQ []uint64 // touched this quantum; BeginQuantum clears it
	age      []uint8  // Linux 2.2 page age; 0 means evictable
	// A page's last reference time is wordUse[vp>>6] when its wordFull bit
	// is set, else lastUse[vp] (lastUsed). A touch that covers a whole word
	// stamps the word once and sets all its bits; a partial touch stamps its
	// pages and clears their bits, and so does mapFrames. The last write
	// wins either way, so no ordering of stamps is assumed (DESIGN §17b).
	lastUse  []sim.Time // per-page last reference time
	wordUse  []sim.Time // one time per word, for the pages wordFull marks
	wordFull []uint64
	// dirtyMap is the dirty flag; only settled pages are dirty. The
	// background writer enumerates the dirty set from it.
	dirtyMap []uint64
	// dirtyBound holds one time per dirtyMap word: an upper bound on the
	// lastUse of that word's dirty pages. The background writer visits
	// words youngest bound first and stops once no remaining word can hold
	// a page younger than its kept set (DESIGN §16). The touch kernel
	// raises the bound of every word it touches; the writer tightens the
	// words it scans. Cleaning, eviction and crashes leave bounds
	// stale-high, which stays sound.
	dirtyBound []sim.Time

	// passGen, passTaken and passCount are the reclaim pass set for this
	// address space: the pages the pass numbered passGen has selected (one
	// bit per vpage) and how many. A stale generation means an empty set;
	// the bitmap is cleared when a new pass first adds to it.
	passGen   uint64
	passTaken []uint64
	passCount int

	hand    int // the default policy's clock hand
	swapCnt int // scan counter of the current swap_out cycle

	// Working-set estimation: distinct pages touched this quantum.
	touched    int
	prevWS     int // distinct pages touched during the previous quantum
	everRanQtm bool

	waiters []pageWaiters // the in-flight pages that faults wait for, ascending vpage

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

// IsResident reports whether vpage has a frame and no read in flight.
func (as *AddressSpace) IsResident(vpage int) bool { return bit(as.settled, vpage) }

// Dirty reports whether vpage is resident and modified since it was last
// written to swap. Audit accessor.
func (as *AddressSpace) Dirty(vpage int) bool { return bit(as.dirtyMap, vpage) }

// OnDisk reports whether vpage is swap-backed: its slot holds a valid copy,
// or a queued write-back will make it one (the fault path treats both the
// same, as the real kernel does — a fault on a page with a queued write
// reads the slot behind that write). onDisk alone only says a write
// completed.
func (as *AddressSpace) OnDisk(vpage int) bool {
	return bit(as.onDisk, vpage) || as.wbPending[vpage] > 0
}

// hasFrame reports whether vp holds a frame: settled or in flight.
func (as *AddressSpace) hasFrame(vp int) bool {
	return (as.settled[vp>>6]|as.inFlight[vp>>6])&(1<<(uint(vp)&63)) != 0
}

// lastUsed reports vp's last reference time.
func (as *AddressSpace) lastUsed(vp int) sim.Time {
	if bit(as.wordFull, vp) {
		return as.wordUse[vp>>6]
	}
	return as.lastUse[vp]
}

// bit, setBit and clearBit read and write one vpage's bit of a page-state
// bitmap.
func bit(m []uint64, vp int) bool { return m[vp>>6]&(1<<(uint(vp)&63)) != 0 }
func setBit(m []uint64, vp int)   { m[vp>>6] |= 1 << (uint(vp) & 63) }
func clearBit(m []uint64, vp int) { m[vp>>6] &^= 1 << (uint(vp) & 63) }

// settledEnd returns the first vpage in [lo, hi) that is not settled, or hi
// when the whole range is. It scans the settled bitmap a word at a time.
func (as *AddressSpace) settledEnd(lo, hi int) int {
	if lo >= hi {
		return lo
	}
	// Shifting the inverted word right fills the top with zeros, which read
	// as settled and send the scan on to the next word.
	if w := ^as.settled[lo>>6] >> (uint(lo) & 63); w != 0 {
		return min(lo+bits.TrailingZeros64(w), hi)
	}
	for wi := lo>>6 + 1; wi<<6 < hi; wi++ {
		if w := ^as.settled[wi]; w != 0 {
			return min(wi<<6+bits.TrailingZeros64(w), hi)
		}
	}
	return hi
}

// PageWords reports word wi of the settled, in-flight and dirty bitmaps:
// the state of vpages 64*wi to 64*wi+63. Audit accessor; the auditor's
// sweep re-derives the mapped, resident and dirty counts from it.
func (as *AddressSpace) PageWords(wi int) (settled, inFlight, dirty uint64) {
	return as.settled[wi], as.inFlight[wi], as.dirtyMap[wi]
}

// PendingWrites reports how many queued write-backs target vpage's slot.
// Audit accessor.
func (as *AddressSpace) PendingWrites(vpage int) int { return int(as.wbPending[vpage]) }

// PendingWriteBacks reports the queued-but-incomplete write-backs of the
// whole image: the sum of PendingWrites over its pages.
func (as *AddressSpace) PendingWriteBacks() int { return as.wbPages }

// WriteCompleted reports whether a write-back of vpage has completed, i.e.
// the slot's copy is valid even if the node crashes right now. Audit
// accessor; the fault path uses OnDisk (which also counts pending writes).
func (as *AddressSpace) WriteCompleted(vpage int) bool { return bit(as.onDisk, vpage) }

// Region reports the process's contiguous swap reservation. Audit accessor.
func (as *AddressSpace) Region() swap.Region { return as.region }

// VM is one node's paging subsystem.
type VM struct {
	eng   *sim.Engine
	phys  *mem.Physical
	dsk   *disk.Disk
	space *swap.Space
	cfg   Config

	// procs is the process table: the live address spaces in ascending pid
	// order. Hot paths hold *AddressSpace directly; pid lookups (per switch
	// and per daemon pass) binary-search it, and a swap_out cycle's reset
	// walks it in pid order for its lowest-pid tie-break (resetSwapCnt).
	procs []*AddressSpace

	// swapOrder lists the processes whose swap_out scan counter is
	// positive, largest counter first and lowest pid first among equal
	// counters, so the default policy picks without scanning the process
	// table (maxSwapCnt).
	swapOrder []*AddressSpace

	policy   Policy
	outgoing int // pid whose pages selective reclaim targets; 0 = none

	// OnPageOut, when non-nil, observes every page evicted from memory, a
	// bitmap word at a time: the pages of pid whose bits are set in mask,
	// vpages 64·word to 64·word+63. Expanding each call's mask in ascending
	// order lists the pages in eviction order. The adaptive page-in
	// recorder (package core) subscribes here.
	OnPageOut func(pid, word int, mask uint64)

	// obs, when non-nil, receives structured events, spans and
	// distributions from the fault, reclaim and write-back paths.
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

	// epoch is bumped by Crash; deferred fault-path work (zero-fill and
	// read-in retries) from an older epoch must not touch post-crash state.
	epoch uint64

	// waitFree recycles fault-wait records (see faultWait).
	waitFree []*faultWait

	// wbPendingPages aggregates every address space's wbPending entries; the
	// auditor cross-checks this incremental counter against a recomputation.
	wbPendingPages int

	// drain, while non-nil, tags write-backs submitted by the current
	// synchronous switch-time page-out so the page-out-drain span can
	// close when the last of them reaches the device. Bracketed by
	// BeginDrain/EndDrain around the kernel's AdaptivePageOut work.
	drain *obs.Latch

	stats Stats

	// submitted, when non-nil, sees every disk request as the VM submits
	// it; tests compare the runs the disk receives with a reference.
	submitted func(*disk.Request)

	// Scratch buffers reused across hot-path calls. All reclaim, eviction
	// and read-in work is synchronous within one engine event, so a single
	// set per VM suffices. Transfers and batches are pools instead, because
	// they live until their disk requests complete. A read keeps its runs
	// in readRuns while it reclaims, and the write-backs that reclaim
	// submits cut theirs into writeRuns.
	pass          reclaimPass
	victimScratch []victim
	ages          ageList
	agedScratch   []aged
	topScratch    []int
	wordScratch   []dirtyWord
	scanScratch   []int
	readRuns      []pageRun
	writeRuns     []pageRun
	setScratch    []uint64
	batchScratch  []dirtyBatch
	batchSets     [][]uint64
	xferFree      []*transfer
	ioFree        []*ioBatch
}

// scratchSet returns the VM's scratch page bitmap, words long. It is zero
// between calls: every user clears what it set before it returns.
func (v *VM) scratchSet(words int) []uint64 {
	if len(v.setScratch) < words {
		v.setScratch = make([]uint64, words)
	}
	return v.setScratch[:words]
}

// pageRun is n consecutive vpages from vp: the pages one disk request
// moves, from or to slots Start+vp onwards of the owner's region.
type pageRun struct{ vp, n int }

// wordMask returns the bits of bitmap word wi that stand for vpages in
// [lo, hi), none when the word lies outside the range.
func wordMask(wi, lo, hi int) uint64 {
	m := ^uint64(0)
	if base := wi << 6; lo > base {
		m <<= uint(lo - base)
	}
	if end := wi<<6 + 64; hi < end {
		m &= ^uint64(0) >> uint(end-hi)
	}
	return m
}

// cutRuns appends to runs the runs of the vpages set in words lo to hi-1
// of set, in ascending order, and clears those words. A region maps vpage
// v to slot Start+v, so consecutive vpages are one extent on disk: a gap
// starts a run, and a run is cut at MaxIOPages. It works a word at a time,
// a stretch of set bits at a time.
func (v *VM) cutRuns(runs []pageRun, set []uint64, lo, hi int) []pageRun {
	maxN := v.cfg.MaxIOPages
	for wi := lo; wi < hi; wi++ {
		w := set[wi]
		set[wi] = 0
		for w != 0 {
			i := bits.TrailingZeros64(w)
			n := bits.TrailingZeros64(^(w >> uint(i))) // the stretch's length
			if i+n < 64 {
				w &= ^uint64(0) << uint(i+n)
			} else {
				w = 0
			}
			for vp := wi<<6 + i; n > 0; {
				k := len(runs) - 1
				if k < 0 || runs[k].vp+runs[k].n != vp || runs[k].n == maxN {
					runs = append(runs, pageRun{vp, 0})
					k++
				}
				add := min(n, maxN-runs[k].n)
				runs[k].n += add
				vp, n = vp+add, n-add
			}
		}
	}
	return runs
}

// ioBatch is one call's disk transfers: a write-back of one process's pages
// or a read. Batches are pooled per VM, like faultWait records.
type ioBatch struct {
	as        *AddressSpace
	write     bool
	remaining int        // transfers not yet completed
	onDone    func()     // a read's completion callback, fired after the last transfer
	drain     *obs.Latch // a write-back's page-out drain, told of every transfer
}

// transfer is one disk request of a batch, moving one run of vpages. It
// embeds the request, whose Done is bound to the record once, when the
// record is created, so a pooled transfer submits without allocating. A
// record goes back to the pool when its request completes; a request that
// Disk.Reset drops never completes, and the collector takes its record (and
// its batch) instead.
type transfer struct {
	v     *VM
	req   disk.Request
	batch *ioBatch
	vp    int // the run's first vpage; req.Run.N is its length
}

// getBatch takes a batch record from the VM's pool.
func (v *VM) getBatch() *ioBatch {
	if n := len(v.ioFree); n > 0 {
		b := v.ioFree[n-1]
		v.ioFree = v.ioFree[:n-1]
		return b
	}
	return &ioBatch{}
}

// getTransfer takes a transfer record from the VM's pool.
func (v *VM) getTransfer() *transfer {
	if n := len(v.xferFree); n > 0 {
		t := v.xferFree[n-1]
		v.xferFree = v.xferFree[:n-1]
		return t
	}
	t := &transfer{v: v}
	t.req.Done = t.done
	return t
}

// submitRuns issues one request of batch b per run, in order.
func (v *VM) submitRuns(b *ioBatch, runs []pageRun, prio disk.Priority, parent obs.SpanID) {
	b.remaining = len(runs)
	for _, r := range runs {
		t := v.getTransfer()
		t.batch, t.vp = b, r.vp
		t.req.Run = disk.Run{Start: b.as.region.SlotFor(r.vp), N: r.n}
		t.req.Write, t.req.Prio, t.req.Parent = b.write, prio, parent
		if v.submitted != nil {
			v.submitted(&t.req)
		}
		v.dsk.Submit(&t.req)
	}
}

// done completes one transfer. It reads what it needs and recycles the
// record before doing any of the work, and the batch before the last
// transfer's callbacks: a read landing resumes processes, and one that
// faults again at once takes records from the pools.
func (t *transfer) done(sim.Duration) {
	v, b, vp, n := t.v, t.batch, t.vp, t.req.Run.N
	t.batch = nil
	v.xferFree = append(v.xferFree, t)
	if b.write {
		v.completeWrite(b.as, vp, n)
	} else {
		v.completeRead(b.as, vp, n)
	}
	b.remaining--
	drain, onDone := b.drain, b.onDone
	if b.remaining > 0 {
		onDone = nil
	} else {
		*b = ioBatch{}
		v.ioFree = append(v.ioFree, b)
	}
	drain.Release(v.eng.Now())
	if onDone != nil {
		onDone()
	}
}

// BeginDrain makes span the current page-out drain: write-backs submitted
// until EndDrain parent to it and hold it open until they land.
func (v *VM) BeginDrain(t *obs.Tracer, span obs.SpanID) {
	v.drain = obs.NewLatch(t, span)
}

// EndDrain closes the synchronous part of the drain; the span ends now if
// no write-back is outstanding, else when the last one completes.
func (v *VM) EndDrain(now sim.Time) {
	v.drain.Arm(now)
	v.drain = nil
}

// New assembles a VM over the given physical memory, disk and swap space.
func New(eng *sim.Engine, phys *mem.Physical, d *disk.Disk, space *swap.Space, cfg Config) *VM {
	cfg.fillDefaults()
	return &VM{
		eng:   eng,
		phys:  phys,
		dsk:   d,
		space: space,
		cfg:   cfg,
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
	if as := v.Process(pid); as != nil {
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
	if pid != 0 && v.Process(pid) == nil {
		panic(fmt.Sprintf("vm: SetOutgoing(%d): no such process", pid))
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
	slot, found := v.slot(pid)
	if found {
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
		wbPending:  make([]uint16, numPages),
		settled:    make([]uint64, words),
		inFlight:   make([]uint64, words),
		onDisk:     make([]uint64, words),
		ref:        make([]uint64, words),
		bgClean:    make([]uint64, words),
		touchedQ:   make([]uint64, words),
		lastUse:    make([]sim.Time, numPages),
		wordUse:    make([]sim.Time, words),
		wordFull:   make([]uint64, words),
		age:        make([]uint8, numPages),
		dirtyMap:   make([]uint64, words),
		dirtyBound: make([]sim.Time, words),
		passTaken:  make([]uint64, words),
		region:     region,
	}
	v.procs = slices.Insert(v.procs, slot, as)
	if v.acct != nil {
		v.acct.RegionReserved(int64(region.N))
	}
	return as, nil
}

// slot binary-searches the process table for pid, reporting its index (or
// where it would be inserted) and whether it is live.
func (v *VM) slot(pid int) (int, bool) {
	return slices.BinarySearchFunc(v.procs, pid, func(as *AddressSpace, pid int) int {
		return cmp.Compare(as.pid, pid)
	})
}

// Process returns the address space for pid, or nil.
func (v *VM) Process(pid int) *AddressSpace {
	if i, ok := v.slot(pid); ok {
		return v.procs[i]
	}
	return nil
}

// NumProcesses reports how many address spaces are live.
func (v *VM) NumProcesses() int { return len(v.procs) }

// AppendPIDs appends the live pids to dst in ascending order and returns it
// like append. The auditor reuses one buffer across sweeps so enumerating
// processes allocates nothing after warm-up.
func (v *VM) AppendPIDs(dst []int) []int {
	for _, as := range v.procs {
		dst = append(dst, as.pid)
	}
	return dst
}

// DestroyProcess releases all frames and the swap region of pid. Pending
// fault waiters are dropped; in-flight disk transfers complete harmlessly.
func (v *VM) DestroyProcess(pid int) {
	i, ok := v.slot(pid)
	if !ok {
		panic(fmt.Sprintf("vm: no process %d", pid))
	}
	as := v.procs[i]
	// Queued write-backs of this process are orphaned: their completions are
	// ignored (completeWrite checks gone), so dropImage takes them out of the
	// aggregate now. The swap region is released below; the disk may still
	// write the old slots, which is harmless — the slots carry no identity
	// once the region is gone.
	mapped, res, inFl, dirtied, wb := v.dropImage(as)
	as.waiters = nil
	as.gone = true
	if v.acct != nil {
		v.acct.Dropped(mapped, res, inFl, dirtied, wb, int64(as.region.N))
	}
	v.space.ReleaseRegion(as.region)
	v.procs = slices.Delete(v.procs, i, i+1)
	if j := slices.Index(v.swapOrder, as); j >= 0 {
		v.swapOrder = slices.Delete(v.swapOrder, j, j+1)
	}
	if v.outgoing == pid {
		v.outgoing = 0
	}
}

// dropImage releases every frame of as without write-back, abandons its
// in-flight reads and cancels its queued write-backs, leaving no page
// mapped. It returns the deltas for the accounting shadow, counted from the
// page-state bitmaps a word at a time rather than taken from the model's
// counters.
//
// Queued and in-flight write-backs die with the disk queue (a crash's
// Disk.Reset drops them), so the data never reached the slot: the pending
// counts are cleared WITHOUT setting onDisk. A page whose only copy was in a
// dropped write loses its backing and will demand-zero re-fault. Slots with
// an earlier completed write keep onDisk: a valid (if stale) copy really is
// on the device.
func (v *VM) dropImage(as *AddressSpace) (mapped, res, inFl, dirtied, wb int) {
	for wi, settled := range as.settled {
		inFlight := as.inFlight[wi]
		mapped += bits.OnesCount64(settled | inFlight)
		res += bits.OnesCount64(settled)
		inFl += bits.OnesCount64(inFlight)
		dirtied += bits.OnesCount64(settled & as.dirtyMap[wi])
	}
	v.phys.Release(mapped)
	if wb = as.wbPages; wb > 0 {
		clear(as.wbPending)
		as.wbPages = 0
	}
	clear(as.inFlight)
	clear(as.settled)
	clear(as.ref)
	clear(as.bgClean)
	clear(as.dirtyMap)
	v.wbPendingPages -= wb
	v.residentSum -= as.resident
	as.resident = 0
	as.mapped = 0
	return mapped, res, inFl, dirtied, wb
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
	var resumes []*faultWait
	for _, as := range v.procs { // ascending pid: deterministic order
		mapped, res, inFl, dirtied, wb := v.dropImage(as)
		if v.acct != nil {
			// Regions survive a reboot, so no slot delta.
			v.acct.Dropped(mapped, res, inFl, dirtied, wb, 0)
		}
		if as.swEvict != nil {
			// Crash-dropped pages were lost, not paged out by a switch;
			// their refaults are ordinary fault stalls.
			clear(as.swEvict)
		}
		// Collect waiters in vpage order, then fire after all bookkeeping is
		// consistent: a resumed process may immediately re-fault.
		for _, pw := range as.waiters {
			for w := pw.first; w != nil; w = w.next {
				resumes = append(resumes, w)
			}
		}
		clear(as.waiters)
		as.waiters = as.waiters[:0]
		as.hand, as.swapCnt = 0, 0
	}
	clear(v.swapOrder)
	v.swapOrder = v.swapOrder[:0]
	v.outgoing = 0
	for _, w := range resumes {
		w.finish()
	}
}

func (v *VM) mustProc(pid int) *AddressSpace {
	as := v.Process(pid)
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
	clear(as.touchedQ)
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
// the node's books move, so it is a maintained aggregate rather than a
// process-table walk; the full sweep validates it against the page tables.
func (v *VM) ResidentSum() int { return v.residentSum }

// Validate cross-checks VM bookkeeping: each address space's counters
// against its page-state bitmaps and the bitmaps against each other, the
// write-back aggregate against the per-page counts, and frame conservation
// (free + locked + mapped == total). Unlike the structured auditor in
// internal/audit (which grew out of this hook and supersedes it for
// whole-simulation checking), it is safe to call at any event boundary:
// pages with an in-flight read hold a frame but are not yet counted
// resident.
func (v *VM) Validate() error {
	pending, mapped := 0, 0
	for _, as := range v.procs {
		if err := v.validateSpace(as); err != nil {
			return err
		}
		own := 0
		for _, n := range as.wbPending {
			own += int(n)
		}
		if own != as.wbPages {
			return fmt.Errorf("vm: pid %d write-back pending counter %d, pages say %d", as.pid, as.wbPages, own)
		}
		pending += own
		mapped += as.mapped
	}
	if pending != v.wbPendingPages {
		return fmt.Errorf("vm: write-back pending counter %d, pages say %d", v.wbPendingPages, pending)
	}
	counting := 0
	for _, as := range v.procs {
		if as.swapCnt > 0 {
			counting++
		}
	}
	for i, as := range v.swapOrder {
		if as.swapCnt <= 0 || as.gone || i > 0 && !swapsBefore(v.swapOrder[i-1], as.swapCnt, as.pid) {
			return fmt.Errorf("vm: swap_out order entry %d (pid %d, counter %d) out of place", i, as.pid, as.swapCnt)
		}
	}
	if counting != len(v.swapOrder) {
		return fmt.Errorf("vm: %d processes have a swap_out counter but the order lists %d", counting, len(v.swapOrder))
	}
	if free, locked := v.phys.NumFree(), v.phys.LockedFrames(); free+locked+mapped != v.phys.NumFrames() {
		return fmt.Errorf("vm: free %d + locked %d + mapped %d != %d frames", free, locked, mapped, v.phys.NumFrames())
	}
	return nil
}

// validateSpace checks one address space's page-state bitmaps against each
// other a word at a time, and its counters against their popcounts.
func (v *VM) validateSpace(as *AddressSpace) error {
	pid := as.pid
	res, mapped, touched := 0, 0, 0
	for wi, settled := range as.settled {
		mappedW := settled | as.inFlight[wi]
		dirty := as.dirtyMap[wi]
		for _, c := range [...]struct {
			bad  uint64
			what string
		}{
			{settled & as.inFlight[wi], "settled and in flight"},
			{dirty &^ settled, "dirty but not settled"},
			{as.bgClean[wi] &^ (settled &^ dirty), "bg-clean but not a clean settled page"},
			{as.ref[wi] &^ mappedW, "referenced without a frame"},
		} {
			if c.bad != 0 {
				return fmt.Errorf("vm: pid %d vpage %d %s", pid, wi<<6+bits.TrailingZeros64(c.bad), c.what)
			}
		}
		for w := dirty; w != 0; w &= w - 1 {
			vp := wi<<6 + bits.TrailingZeros64(w)
			if last := as.lastUsed(vp); last > as.dirtyBound[wi] {
				return fmt.Errorf("vm: pid %d dirty-map word %d bound %d is below the last use %d of its dirty vpage %d",
					pid, wi, as.dirtyBound[wi], last, vp)
			}
		}
		res += bits.OnesCount64(settled)
		mapped += bits.OnesCount64(mappedW)
		touched += bits.OnesCount64(as.touchedQ[wi])
	}
	if res != as.resident {
		return fmt.Errorf("vm: pid %d resident counter %d, settled bits say %d", pid, as.resident, res)
	}
	if mapped != as.mapped {
		return fmt.Errorf("vm: pid %d mapped counter %d, settled and in-flight bits say %d", pid, as.mapped, mapped)
	}
	if touched != as.touched {
		return fmt.Errorf("vm: pid %d touched counter %d, touchedQ holds %d pages", pid, as.touched, touched)
	}
	return nil
}
