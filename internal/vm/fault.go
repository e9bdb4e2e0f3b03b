package vm

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ResidentRun reports how many consecutive pages starting at vpage are
// resident (capped at max), using the touch kernel's run-length scan.
func (v *VM) ResidentRun(pid, vpage, max int) int {
	as := v.mustProc(pid)
	return as.settledEnd(vpage, min(vpage+max, as.numPages)) - vpage
}

// TouchResident marks [vpage, vpage+n) referenced (and dirty when write is
// set), updating per-page ages and the working-set estimator. Every page in
// the range must be resident.
func (v *VM) TouchResident(pid, vpage, n int, write bool) {
	v.TouchResidentAt(pid, vpage, n, write, v.eng.Now())
}

// TouchResidentAt is TouchResident with an explicit reference timestamp:
// TouchRun over exactly n pages, which panics if the run stops short.
func (v *VM) TouchResidentAt(pid, vpage, n int, write bool, at sim.Time) {
	if got := v.TouchRun(v.mustProc(pid), vpage, n, write, at); got != n {
		panic(fmt.Sprintf("vm: TouchResident(%d, %d): page not resident", pid, vpage+got))
	}
}

// TouchRun touches up to max consecutive resident pages of as starting at
// vpage, stopping at the first non-resident page, and returns the run
// length. Each page is referenced, stamped last used at at (the clock value
// the process engine's chunk would have seen un-collapsed; never before
// now) and, for a write, dirtied. It works a bitmap word (64 pages) at a
// time, counting by popcount; a word the run covers whole is stamped once
// (wordUse), and only the pages of a partial first or last word are
// stamped one by one.
func (v *VM) TouchRun(as *AddressSpace, vpage, max int, write bool, at sim.Time) int {
	hi := as.settledEnd(vpage, min(vpage+max, as.numPages))
	if hi <= vpage {
		return 0
	}
	dirtied, wasted, touched := 0, 0, 0
	for wi, last := vpage>>6, (hi-1)>>6; wi <= last; wi++ {
		mask := ^uint64(0)
		if wi == vpage>>6 {
			mask <<= uint(vpage) & 63
		}
		if wi == last {
			mask &= ^uint64(0) >> (63 - (uint(hi-1) & 63))
		}
		as.ref[wi] |= mask
		if write {
			wasted += bits.OnesCount64(as.bgClean[wi] & mask)
			as.bgClean[wi] &^= mask
			dirtied += bits.OnesCount64(mask &^ as.dirtyMap[wi])
			as.dirtyMap[wi] |= mask
		}
		touched += bits.OnesCount64(mask &^ as.touchedQ[wi])
		as.touchedQ[wi] |= mask
		if as.dirtyBound[wi] < at { // read touches too (DESIGN §16a)
			as.dirtyBound[wi] = at
		}
		if mask == ^uint64(0) {
			as.wordUse[wi] = at
			as.wordFull[wi] = mask
			continue
		}
		as.wordFull[wi] &^= mask
		lo := wi<<6 + bits.TrailingZeros64(mask)
		lastUse := as.lastUse[lo : lo+bits.OnesCount64(mask)]
		for i := range lastUse {
			lastUse[i] = at
		}
	}
	as.touched += touched
	v.stats.WastedBGWrite += int64(wasted)
	if dirtied > 0 && v.acct != nil {
		v.acct.PagesDirtied(dirtied)
	}
	return hi - vpage
}

// faultWait is one blocked fault: the page it waits for, when it trapped,
// its span IDs and the resume to call once the page is resident. Records
// are pooled per VM and their method values bound once, so scheduling one
// allocates nothing once the pool is warm. A record returns to the pool
// exactly once, when finish runs: after a resident or zero-fill fault's
// delay, when its read lands, or when Crash releases it (a zero-fill retry
// from before a crash finishes too). Waiters dropped by DestroyProcess are
// not recycled.
type faultWait struct {
	v            *VM
	as           *AddressSpace
	vpage        int
	start        sim.Time
	span, parent obs.SpanID
	epoch        uint64 // VM epoch when a zero fill started; retries check it
	resume       func()
	next         *faultWait // next waiter on the same in-flight vpage

	finishFn, attemptFn func() // finish and attempt, bound once
}

// getWait takes a fault-wait record from the VM's pool.
func (v *VM) getWait() *faultWait {
	if n := len(v.waitFree); n > 0 {
		w := v.waitFree[n-1]
		v.waitFree = v.waitFree[:n-1]
		return w
	}
	w := &faultWait{v: v}
	w.finishFn, w.attemptFn = w.finish, w.attempt
	return w
}

// finish accounts the fault's stall, records its span, recycles the record
// and resumes the process (which may fault again at once, on this record).
func (w *faultWait) finish() {
	v := w.v
	v.endStall(w.as, w.span, w.parent, w.start, v.eng.Now())
	resume := w.resume
	w.as, w.resume, w.next = nil, nil, nil
	v.waitFree = append(v.waitFree, w)
	resume()
}

// attempt materialises a demand-zero page. If not a single frame can be
// freed right now (memory pinned by in-flight reads), it retries shortly.
func (w *faultWait) attempt() {
	v, as := w.v, w.as
	if v.epoch != w.epoch {
		// The node crashed while this fill was waiting for memory;
		// release the process so it can re-fault after the restart.
		w.finish()
		return
	}
	v.ensureFree(1)
	if v.phys.Take(1) == 0 {
		v.eng.ScheduleDetached(reclaimRetryDelay, w.attemptFn)
		return
	}
	v.settleZero(as, w.vpage, v.eng.Now())
	v.eng.ScheduleDetached(v.cfg.FaultOverhead+v.cfg.ZeroFillCost, w.finishFn)
}

// endStall accounts a fault stall from trap to wakeup and records its span
// under the ID the trap reserved.
func (v *VM) endStall(as *AddressSpace, span, parent obs.SpanID, start, end sim.Time) {
	stall := end.Sub(start)
	v.stats.FaultStall += stall
	as.stats.FaultStall += stall
	if v.obs != nil {
		v.obs.FaultStall.ObserveMicros(int64(stall))
		v.obs.Tracer.EmitReserved(span, obs.SpanFault, parent, v.obs.Node, as.pid, start, end, 0)
	}
}

// settleZero installs a frame already taken at vp as a resident
// demand-zero page.
func (v *VM) settleZero(as *AddressSpace, vp int, now sim.Time) {
	v.mapFrames(as, vp>>6, 1<<(uint(vp)&63), now)
	setBit(as.settled, vp)
	as.resident++
	v.residentSum++
	if v.acct != nil {
		v.acct.MapResident()
	}
}

// FoldZeroFill performs, at virtual time at, the whole demand-zero fault on
// vpage that a process would trap into when its resume fired then: Fault's
// zero-fill branch, attempt and finish, in that order and with their
// timestamps, the stall ending d = FaultOverhead + ZeroFillCost later. The
// process engine uses it to keep a fast-forwarded touch window going
// (DESIGN §10b), so it acts only when the fault provably runs alone: the
// page has no frame and no swap copy, taking a frame leaves free memory at
// or above freepages.min (no reclaim, so nothing is scheduled or
// submitted), and, when hasNext, the stall ends strictly before next, the
// queue's next event. Otherwise it changes nothing and reports ok false.
// cat is the ledger category the stall belongs to: CatSwitch where Fault
// would retag it, CatFault otherwise.
func (v *VM) FoldZeroFill(as *AddressSpace, vpage int, at, next sim.Time, hasNext bool) (d sim.Duration, cat obs.Category, ok bool) {
	d = v.cfg.FaultOverhead + v.cfg.ZeroFillCost
	end := at.Add(d)
	if as.hasFrame(vpage) || as.OnDisk(vpage) ||
		v.phys.ReclaimTarget(1) > 0 || hasNext && end >= next {
		return 0, 0, false
	}
	span, parent := v.faultSpan()
	cat = obs.CatFault
	if as.switchStall(vpage) {
		cat = obs.CatSwitch
	}
	v.zeroFillFault(as)
	v.phys.Take(1) // a frame is free: see above
	v.settleZero(as, vpage, at)
	v.endStall(as, span, parent, at, end)
	return d, cat, true
}

// addWaiter queues w behind any earlier waiters on the in-flight vpage.
func (as *AddressSpace) addWaiter(vp int, w *faultWait) {
	last := as.waiters[vp]
	if last == nil {
		as.waiters[vp] = w
		return
	}
	for last.next != nil {
		last = last.next
	}
	last.next = w
}

// mapFrames installs frames the caller took for the pages of mask in word
// wi: each page is mapped, referenced, last used now and starts at
// AgeStart. Callers then mark them settled (zero fill) or in flight (swap
// read).
func (v *VM) mapFrames(as *AddressSpace, wi int, mask uint64, now sim.Time) {
	as.mapped += bits.OnesCount64(mask)
	as.ref[wi] |= mask
	as.wordFull[wi] &^= mask
	for m := mask; m != 0; m &= m - 1 {
		vp := wi<<6 + bits.TrailingZeros64(m)
		as.lastUse[vp] = now
		as.age[vp] = uint8(v.cfg.AgeStart)
	}
}

// Fault handles a reference to vpage of as that the caller found
// non-resident (a resident page is a no-op minor fault). resume is invoked —
// possibly after queueing and disk time — once the page is resident. write
// only affects accounting; the caller marks dirtiness by re-touching after
// resume.
func (v *VM) Fault(as *AddressSpace, vpage int, write bool, resume func()) {
	if as.gone {
		panic(fmt.Sprintf("vm: fault on destroyed process %d", as.pid))
	}
	if vpage < 0 || vpage >= as.numPages {
		panic(fmt.Sprintf("vm: fault at vpage %d outside footprint %d of pid %d", vpage, as.numPages, as.pid))
	}
	w := v.getWait()
	w.as, w.vpage, w.start, w.resume = as, vpage, v.eng.Now(), resume
	w.span, w.parent = v.faultSpan()
	resident := as.IsResident(vpage)
	if !resident && as.switchStall(vpage) {
		as.led.Retag(obs.CatSwitch)
	}

	// Already resident: minor fault (racing touch), just pay the trap cost.
	if resident {
		v.minorFault(as)
		v.eng.ScheduleDetached(v.cfg.FaultOverhead, w.finishFn)
		return
	}
	// Read already in flight (e.g. adaptive page-in prefetch): wait for it.
	if bit(as.inFlight, vpage) {
		v.minorFault(as)
		as.addWaiter(vpage, w)
		return
	}
	// Demand-zero page: no disk involved.
	if !as.OnDisk(vpage) {
		v.zeroFillFault(as)
		w.epoch = v.epoch
		w.attempt()
		return
	}

	// Major fault: read the page plus a read-ahead group of contiguous
	// swap-backed neighbours, as the Linux 2.2 swap-in path does.
	v.stats.MajorFaults++
	as.stats.MajorFaults++
	group := append(v.getGroup(), vpage)
	for next := vpage + 1; next < as.numPages && len(group) < v.cfg.ReadAhead; next++ {
		if as.hasFrame(next) || !as.OnDisk(next) {
			break
		}
		group = append(group, next)
	}
	as.addWaiter(vpage, w)
	v.readIn(as, group, disk.Demand, w.span, nil)
}

// faultSpan reserves a fault's span ID and names its parent. The fault span
// parents to the switch epoch current at trap time, which is what lets a
// post-switch fault storm be attributed to the switch. Its ID is reserved
// at the trap — the disk reads the fault triggers parent to it — but the
// span itself is recorded retrospectively at wakeup (endStall): faults are
// by far the most numerous span kind, and the reserve/emit pair skips the
// tracer's open-span bookkeeping. Both are zero when tracing is off.
func (v *VM) faultSpan() (span, parent obs.SpanID) {
	if v.obs == nil {
		return 0, 0
	}
	parent = v.obs.Tracer.Epoch()
	return v.obs.Tracer.Reserve(), parent
}

// switchStall reports whether a stall on non-resident vp is switch
// overhead, not an ordinary fault stall: the rank has a ledger and the page
// was evicted while its owner was descheduled (or is still in flight from
// the switch's prefetch).
func (as *AddressSpace) switchStall(vp int) bool {
	return as.led != nil && as.swEvict != nil && as.swEvict[vp]
}

// minorFault accounts one fault satisfied without disk I/O.
func (v *VM) minorFault(as *AddressSpace) {
	v.stats.MinorFaults++
	as.stats.MinorFaults++
}

// zeroFillFault accounts a minor fault that a demand-zero page satisfies.
func (v *VM) zeroFillFault(as *AddressSpace) {
	v.minorFault(as)
	v.stats.ZeroFills++
	as.stats.ZeroFills++
}

// ReadPagesIn brings the listed pages of pid into memory through
// ReadPageSet: it sets their bits in a scratch bitmap and reads that. A
// page outside the footprint, or listed twice, is a caller bug and panics.
func (v *VM) ReadPagesIn(pid int, vpages []int, prio disk.Priority, onDone func()) {
	as := v.mustProc(pid)
	if len(v.setScratch) < len(as.settled) {
		v.setScratch = make([]uint64, len(as.settled))
	}
	set := v.setScratch[:len(as.settled)]
	for _, vp := range vpages {
		if vp < 0 || vp >= as.numPages {
			clear(set)
			panic(fmt.Sprintf("vm: ReadPagesIn vpage %d outside footprint of pid %d", vp, pid))
		}
		w, b := vp>>6, uint64(1)<<(uint(vp)&63)
		if set[w]&b != 0 {
			clear(set)
			panic(fmt.Sprintf("vm: ReadPagesIn vpage %d of pid %d listed twice", vp, pid))
		}
		set[w] |= b
	}
	v.ReadPageSet(pid, set, prio, 0, onDone)
}

// ReadPageSet brings the pages of pid whose bits are set in set (bit i of
// word w is vpage 64·w+i) into memory with batched, coalesced disk reads:
// the adaptive page-in primitive. Pages that are resident, already in
// flight, or demand-zero are skipped. It takes the pages out of set, which
// it leaves zero, before it reads anything, and builds the ascending read
// group from the words, sized once. parent is the causal span stamped onto
// the disk requests (0 for none). onDone, if non-nil, fires once every
// transfer issued by this call has completed; it fires immediately if
// nothing needed reading.
func (v *VM) ReadPageSet(pid int, set []uint64, prio disk.Priority, parent obs.SpanID, onDone func()) {
	as := v.mustProc(pid)
	for wi := len(as.settled) - 1; wi < len(set); wi++ {
		over := set[wi]
		if wi == len(as.settled)-1 {
			over &^= ^uint64(0) >> (63 - uint(as.numPages-1)&63)
		}
		if over != 0 {
			panic(fmt.Sprintf("vm: ReadPageSet vpage %d outside footprint of pid %d", wi<<6+bits.TrailingZeros64(over), pid))
		}
	}
	words := min(len(set), len(as.settled))
	n := 0
	for wi, w := range set[:words] {
		if w == 0 {
			continue
		}
		w &^= as.settled[wi] | as.inFlight[wi]
		backed := w & as.onDisk[wi]
		for pend := w &^ backed; pend != 0; pend &= pend - 1 {
			if as.wbPending[wi<<6+bits.TrailingZeros64(pend)] > 0 {
				backed |= pend & -pend
			}
		}
		set[wi] = backed
		n += bits.OnesCount64(backed)
	}
	group := slices.Grow(v.getGroup(), n)
	for wi, w := range set[:words] {
		set[wi] = 0
		for ; w != 0; w &= w - 1 {
			group = append(group, wi<<6+bits.TrailingZeros64(w))
		}
	}
	if len(group) == 0 {
		v.putGroup(group)
		if onDone != nil {
			onDone()
		}
		return
	}
	v.readIn(as, group, prio, parent, onDone)
}

// reclaimRetryDelay is how long a page-in waits when not a single frame can
// be freed (typically because every frame is pinned by in-flight reads) —
// the analogue of sleeping on kswapd.
const reclaimRetryDelay = 500 * sim.Microsecond

// readIn allocates frames for the group (reclaiming first if needed),
// splits it into bounded disk transactions and marks pages resident as each
// transaction completes. The group holds only pages with no frame and a
// swap copy. When memory is momentarily unfreeable the read is retried;
// pages that become resident through other transfers in the meantime are
// dropped from the group (their waiters fire with those transfers).
//
// readIn owns group, a pooled buffer of ascending vpages: it returns it to
// the pool, or hands it to the read's batch, which returns it once the
// last transfer lands.
func (v *VM) readIn(as *AddressSpace, group []int, prio disk.Priority, parent obs.SpanID, onDone func()) {
	avail := v.ensureFree(len(group))
	if avail < 1 {
		v.retryReadIn(as, group, prio, parent, onDone)
		return
	}
	// ensureFree left at least avail frames free, so Take takes them all.
	group = group[:v.phys.Take(avail)]
	now := v.eng.Now()
	for i := 0; i < len(group); {
		wi := group[i] >> 6
		var mask uint64
		for ; i < len(group) && group[i]>>6 == wi; i++ {
			mask |= 1 << (uint(group[i]) & 63)
		}
		v.mapFrames(as, wi, mask, now)
		as.inFlight[wi] |= mask
	}
	if v.acct != nil {
		v.acct.MapInFlight(len(group))
	}
	// One request per run; each completion marks its run's pages resident.
	b := v.getBatch()
	b.as, b.group, b.onDone = as, group, onDone
	v.submitBatch(b, v.coalesceSplit(as, group), prio, parent)
}

// retryReadIn runs readIn on group again after reclaimRetryDelay, without
// the pages that landed through other reads or lost their swap copy in the
// meantime, unless the node crashes or the process exits first. It is a
// function of its own so that only a retry, not every read, moves readIn's
// arguments to the heap.
func (v *VM) retryReadIn(as *AddressSpace, group []int, prio disk.Priority, parent obs.SpanID, onDone func()) {
	epoch := v.epoch
	v.eng.ScheduleDetached(reclaimRetryDelay, func() {
		kept := group[:0]
		for _, vp := range group {
			if !as.hasFrame(vp) && as.OnDisk(vp) {
				kept = append(kept, vp)
			}
		}
		if v.epoch != epoch || as.gone || len(kept) == 0 {
			// Node crashed (Crash resumed the waiters), the process was
			// destroyed (its waiters went with it) or nothing is left to
			// read: abandon the read. Reading into a destroyed address
			// space would leak every frame it took.
			v.putGroup(kept)
			if onDone != nil {
				onDone()
			}
			return
		}
		v.readIn(as, kept, prio, parent, onDone)
	})
}

func (v *VM) completeRead(as *AddressSpace, pages []int) {
	n := 0
	for _, vp := range pages {
		if !bit(as.inFlight, vp) {
			continue // process destroyed or page stolen mid-flight
		}
		clearBit(as.inFlight, vp)
		setBit(as.settled, vp)
		as.resident++
		v.residentSum++
		n++
		if as.swEvict != nil {
			as.swEvict[vp] = false // resident again: next eviction decides anew
		}
		if w := as.waiters[vp]; w != nil {
			delete(as.waiters, vp)
			for w != nil {
				next := w.next // finish recycles w
				w.finish()
				w = next
			}
		}
	}
	v.stats.PagesIn += int64(n)
	as.stats.PagesIn += int64(n)
	if v.acct != nil && n > 0 {
		// Pages skipped above were already dropped from the shadow by the
		// crash or teardown that stole them.
		v.acct.ReadsLanded(n)
	}
}
