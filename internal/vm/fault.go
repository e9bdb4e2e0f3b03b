package vm

import (
	"cmp"
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
		v.observeStall(as, span, parent, start, end)
	}
}

// observeStall records a fault stall's distribution sample and its span.
func (v *VM) observeStall(as *AddressSpace, span, parent obs.SpanID, start, end sim.Time) {
	v.obs.FaultStall.ObserveMicros(int64(end.Sub(start)))
	v.obs.Tracer.EmitReserved(span, obs.SpanFault, parent, v.obs.Node, as.pid, start, end, 0)
}

// settleZero installs a frame already taken at vp as a resident
// demand-zero page.
func (v *VM) settleZero(as *AddressSpace, vp int, now sim.Time) {
	v.mapFrames(as, vp>>6, 1<<(uint(vp)&63), now)
	setBit(as.settled, vp)
	as.resident++
	v.residentSum++
	if v.acct != nil {
		v.acct.MapResident(1)
	}
}

// FoldZeroFill performs, from virtual time at, the demand-zero faults of a
// process touching a stretch of pages one by one from vpage, and the
// touches between them, as the un-collapsed schedule would (DESIGN §10b).
// Page i (from 0) is filled at t_i = at + i·(d+c), d = FaultOverhead +
// ZeroFillCost, its stall ending at t_i + d; every page but the last is
// then touched (written when write is set) as a one-page chunk costing c.
// The last page is left for the caller's next chunk, which may run on into
// resident pages. A page is filled only when its fault provably runs
// alone: it lies within max of vpage, has no frame and no swap copy, its
// frame leaves free memory at or above freepages.min (no reclaim), and,
// when hasNext, its stall ends before next, the queue's next event, which
// is tested first. It returns the pages filled (0 when it changed
// nothing), how many of their stalls are the ledger's CatSwitch (where
// Fault would retag them; the rest are CatFault), and d.
func (v *VM) FoldZeroFill(as *AddressSpace, vpage, max int, write bool, at sim.Time, c sim.Duration, next sim.Time, hasNext bool) (n, switched int, d sim.Duration) {
	d = v.cfg.FaultOverhead + v.cfg.ZeroFillCost
	step := d + c
	if hasNext {
		gap := next.Sub(at) - d // page i fills while i·step < gap
		if gap <= 0 {
			return 0, 0, d
		}
		if k := (gap-1)/step + 1; k < sim.Duration(max) {
			max = int(k)
		}
	}
	n = as.zeroRun(vpage, min(max, v.phys.Headroom()))
	if n == 0 {
		return 0, 0, d
	}
	end := vpage + n
	if as.switchStalls() {
		for _, sw := range as.swEvict[vpage:end] {
			if sw {
				switched++
			}
		}
	}
	v.phys.Take(n) // the headroom covers them: see above
	v.zeroFillFaults(as, n)
	stall := sim.Duration(n) * d
	v.stats.FaultStall += stall
	as.stats.FaultStall += stall
	// Only the stall histogram and the tracer record fills: a run observed
	// for its events alone (an audited run's tail ring) skips the loop.
	if o := v.obs; o != nil && (o.FaultStall != nil || o.Tracer != nil) {
		for i := range n {
			t := at.Add(sim.Duration(i) * step)
			span, parent := v.faultSpan()
			v.observeStall(as, span, parent, t, t.Add(d))
		}
	}

	// Page state, a word mask at a time: every page is mapped, settled and
	// referenced, and all but the last are touched. None was resident, so
	// none was dirty or cleaned by the background writer.
	last := end - 1
	dirtied, touched := 0, 0
	for wi := vpage >> 6; wi<<6 < end; wi++ {
		m := wordMask(wi, vpage, end)
		as.settled[wi] |= m
		as.ref[wi] |= m
		as.wordFull[wi] &^= m
		tm := wordMask(wi, vpage, last)
		if tm == 0 {
			continue // the last page alone, left untouched
		}
		if write {
			dirtied += bits.OnesCount64(tm)
			as.dirtyMap[wi] |= tm
		}
		touched += bits.OnesCount64(tm &^ as.touchedQ[wi])
		as.touchedQ[wi] |= tm
		top := wi<<6 + 63 - bits.LeadingZeros64(tm) // the word's last touched page
		if t := at.Add(sim.Duration(top-vpage)*step + d); as.dirtyBound[wi] < t {
			as.dirtyBound[wi] = t
		}
	}
	ages := as.age[vpage:end]
	for i := range ages {
		ages[i] = uint8(v.cfg.AgeStart)
	}
	uses := as.lastUse[vpage:end]
	t := at.Add(d)
	for i := range uses[:n-1] {
		uses[i] = t
		t = t.Add(step)
	}
	uses[n-1] = t.Add(-d) // its fill time, which the caller's touch replaces
	as.mapped += n
	as.resident += n
	v.residentSum += n
	as.touched += touched
	if v.acct != nil {
		v.acct.MapResident(n)
		if dirtied > 0 {
			v.acct.PagesDirtied(dirtied)
		}
	}
	return n, switched, d
}

// zeroRun returns how many pages from vp, up to max, are demand-zero: no
// frame and no swap copy, completed or pending. It reads the frame and
// swap bitmaps a word at a time.
func (as *AddressSpace) zeroRun(vp, max int) int {
	end := min(vp+max, as.numPages)
	hi := vp
	for hi < end {
		off := int(uint(hi) & 63)
		wi := hi >> 6
		held := (as.settled[wi] | as.inFlight[wi] | as.onDisk[wi]) >> uint(off)
		k := bits.TrailingZeros64(held) // 64 - off or more: none held in the rest of the word
		stop := k < 64-off
		k = min(k, 64-off, end-hi)
		if as.wbPages > 0 {
			for i, p := range as.wbPending[hi : hi+k] {
				if p > 0 {
					return hi + i - vp
				}
			}
		}
		hi += k
		if stop {
			break
		}
	}
	return hi - vp
}

// pageWaiters is the faults waiting for one in-flight vpage, linked from
// first in arrival order.
type pageWaiters struct {
	vp    int
	first *faultWait
}

// waiterIndex returns the index of the first entry of as.waiters at or
// above vp.
func (as *AddressSpace) waiterIndex(vp int) int {
	i, _ := slices.BinarySearchFunc(as.waiters, vp, func(e pageWaiters, vp int) int { return cmp.Compare(e.vp, vp) })
	return i
}

// addWaiter queues w behind any earlier waiters on the in-flight vpage.
func (as *AddressSpace) addWaiter(vp int, w *faultWait) {
	i := as.waiterIndex(vp)
	if i == len(as.waiters) || as.waiters[i].vp != vp {
		as.waiters = slices.Insert(as.waiters, i, pageWaiters{vp, w})
		return
	}
	last := as.waiters[i].first
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
		v.zeroFillFaults(as, 1)
		w.epoch = v.epoch
		w.attempt()
		return
	}

	// Major fault: read the page plus a read-ahead group of contiguous
	// swap-backed neighbours, as the Linux 2.2 swap-in path does.
	v.stats.MajorFaults++
	as.stats.MajorFaults++
	hi := vpage + 1
	for hi < as.numPages && hi-vpage < v.cfg.ReadAhead && !as.hasFrame(hi) && as.OnDisk(hi) {
		hi++
	}
	runs := v.readRuns[:0]
	for lo := vpage; lo < hi; lo += v.cfg.MaxIOPages {
		runs = append(runs, pageRun{lo, min(hi-lo, v.cfg.MaxIOPages)})
	}
	v.readRuns = runs
	as.addWaiter(vpage, w)
	v.readIn(as, runs, disk.Demand, w.span, nil)
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
	return as.switchStalls() && as.swEvict[vp]
}

// switchStalls reports whether any stall of as can be switch overhead: the
// rank has a ledger and the switch-eviction marks.
func (as *AddressSpace) switchStalls() bool { return as.led != nil && as.swEvict != nil }

// minorFault accounts one fault satisfied without disk I/O.
func (v *VM) minorFault(as *AddressSpace) {
	v.stats.MinorFaults++
	as.stats.MinorFaults++
}

// zeroFillFaults accounts n minor faults that demand-zero pages satisfy.
func (v *VM) zeroFillFaults(as *AddressSpace, n int) {
	v.stats.MinorFaults += int64(n)
	as.stats.MinorFaults += int64(n)
	v.stats.ZeroFills += int64(n)
	as.stats.ZeroFills += int64(n)
}

// ReadPagesIn brings the listed pages of pid into memory through
// ReadPageSet: it sets their bits in a scratch bitmap and reads that. A
// page outside the footprint, or listed twice, is a caller bug and panics.
func (v *VM) ReadPagesIn(pid int, vpages []int, prio disk.Priority, onDone func()) {
	as := v.mustProc(pid)
	set := v.scratchSet(len(as.settled))
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
// flight, or demand-zero are skipped. It cuts the rest straight from the
// words into runs (cutRuns), taking them out of set, which it leaves zero,
// before it reads anything. parent is the causal span stamped onto the
// disk requests (0 for none). onDone, if non-nil, fires once every
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
	lo, hi := words, 0 // the words left non-empty
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
		if backed != 0 {
			lo, hi = min(lo, wi), wi+1
		}
	}
	if lo >= hi {
		if onDone != nil {
			onDone()
		}
		return
	}
	v.readRuns = v.cutRuns(v.readRuns[:0], set, lo, hi)
	v.readIn(as, v.readRuns, prio, parent, onDone)
}

// reclaimRetryDelay is how long a page-in waits when not a single frame can
// be freed (typically because every frame is pinned by in-flight reads) —
// the analogue of sleeping on kswapd.
const reclaimRetryDelay = 500 * sim.Microsecond

// readIn allocates frames for the pages of runs (reclaiming first if
// needed), issues one disk request per run and marks pages resident as
// each request completes. The runs are ascending, cut as cutRuns cuts
// them, and hold only pages with no frame and a swap copy. When fewer
// frames are free than pages, the read is cut to the pages the frames
// cover, in order. When memory is momentarily unfreeable the read is
// retried; pages that become resident through other transfers in the
// meantime are dropped from it (their waiters fire with those transfers).
// runs is the caller's scratch: readIn is done with it when it returns.
func (v *VM) readIn(as *AddressSpace, runs []pageRun, prio disk.Priority, parent obs.SpanID, onDone func()) {
	n := 0
	for _, r := range runs {
		n += r.n
	}
	avail := v.ensureFree(n)
	if avail < 1 {
		v.retryReadIn(as, slices.Clone(runs), prio, parent, onDone)
		return
	}
	// ensureFree left at least avail frames free, so Take takes them all.
	v.phys.Take(avail)
	now := v.eng.Now()
	k := 0
	for left := avail; left > 0; k++ {
		r := &runs[k]
		r.n = min(r.n, left)
		left -= r.n
		for wi, end := r.vp>>6, r.vp+r.n; wi<<6 < end; wi++ {
			m := wordMask(wi, r.vp, end)
			v.mapFrames(as, wi, m, now)
			as.inFlight[wi] |= m
		}
	}
	if v.acct != nil {
		v.acct.MapInFlight(avail)
	}
	// One request per run; each completion marks its run's pages resident.
	b := v.getBatch()
	b.as, b.onDone = as, onDone
	v.submitRuns(b, runs[:k], prio, parent)
}

// retryReadIn runs readIn again after reclaimRetryDelay on the pages of
// runs (a copy the retry owns) that have not landed through other reads or
// lost their swap copy in the meantime, cut into runs afresh, unless the
// node crashes or the process exits first. It is a function of its own so
// that only a retry, not every read, allocates.
func (v *VM) retryReadIn(as *AddressSpace, runs []pageRun, prio disk.Priority, parent obs.SpanID, onDone func()) {
	epoch := v.epoch
	v.eng.ScheduleDetached(reclaimRetryDelay, func() {
		set := v.scratchSet(len(as.settled))
		lo, hi := len(set), 0
		if v.epoch == epoch && !as.gone {
			for _, r := range runs {
				for vp := r.vp; vp < r.vp+r.n; vp++ {
					if !as.hasFrame(vp) && as.OnDisk(vp) {
						setBit(set, vp)
						lo, hi = min(lo, vp>>6), vp>>6+1
					}
				}
			}
		}
		if lo >= hi {
			// Node crashed (Crash resumed the waiters), the process was
			// destroyed (its waiters went with it) or nothing is left to
			// read: abandon the read. Reading into a destroyed address
			// space would leak every frame it took.
			if onDone != nil {
				onDone()
			}
			return
		}
		v.readRuns = v.cutRuns(v.readRuns[:0], set, lo, hi)
		v.readIn(as, v.readRuns, prio, parent, onDone)
	})
}

// completeRead lands the in-flight pages among the n from vp: it marks
// them resident in ascending order, a word mask at a time, and finishes
// each landed page's waiters before it lands any page above it. A resumed
// process may touch or fault on the pages above at once, and it must find
// them still in flight, switch-eviction marks and all, as it would if
// they landed one by one. Waiters are looked up only on the pages that
// have them.
func (v *VM) completeRead(as *AddressSpace, vp, n int) {
	landed := 0
	for hi := vp + n; vp < hi; {
		end := hi
		i := as.waiterIndex(vp)
		waited := i < len(as.waiters) && as.waiters[i].vp < hi
		if waited {
			end = as.waiters[i].vp + 1
			waited = bit(as.inFlight, end-1) // only a landed page's waiters run
		}
		landed += v.land(as, vp, end)
		vp = end
		if waited {
			w := as.waiters[i].first
			as.waiters = slices.Delete(as.waiters, i, i+1)
			for w != nil {
				next := w.next // finish recycles w
				w.finish()
				w = next
			}
		}
	}
	v.stats.PagesIn += int64(landed)
	as.stats.PagesIn += int64(landed)
	if v.acct != nil && landed > 0 {
		// Pages skipped by land were already dropped from the shadow by the
		// crash or teardown that stole them.
		v.acct.ReadsLanded(landed)
	}
}

// land marks the pages of [lo, hi) that are in flight resident, a word at
// a time, and returns how many there were. Pages not in flight were stolen
// mid-flight: their process was destroyed or their node crashed.
func (v *VM) land(as *AddressSpace, lo, hi int) int {
	n := 0
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		m := wordMask(wi, lo, hi) & as.inFlight[wi]
		if m == 0 {
			continue
		}
		as.inFlight[wi] &^= m
		as.settled[wi] |= m
		n += bits.OnesCount64(m)
		if as.swEvict != nil {
			// Resident again: the next eviction decides anew.
			for b := m; b != 0; b &= b - 1 {
				as.swEvict[wi<<6+bits.TrailingZeros64(b)] = false
			}
		}
	}
	as.resident += n
	v.residentSum += n
	return n
}
