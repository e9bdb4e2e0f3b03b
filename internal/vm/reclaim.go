package vm

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
)

// victim names evictable pages of one address space: the set bits of mask
// in bitmap word wi, vpages 64·wi to 64·wi+63. Selections append victims
// so that expanding each mask in ascending bit order, victim by victim,
// lists the pages in eviction order.
type victim struct {
	as   *AddressSpace
	wi   int
	mask uint64
}

// aged pairs a virtual page with its frame's last-use time; scratch element
// for the youngest-first write-back selection.
type aged struct {
	vp   int
	last sim.Time
}

// agedLess orders the write-back selection min-heap by (lastUse, descending
// vpage): the root is the oldest entry of the kept set, displaced first.
// These and the word-heap helpers below are package-level (not closures
// inside the selection) so the compiler can inline the comparisons and
// keep the heap slices off the heap.
func agedLess(a, b aged) bool {
	if a.last != b.last {
		return a.last < b.last
	}
	return a.vp > b.vp
}

func agedSiftDown(heap []aged, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(heap) && agedLess(heap[l], heap[small]) {
			small = l
		}
		if r < len(heap) && agedLess(heap[r], heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		heap[i], heap[small] = heap[small], heap[i]
		i = small
	}
}

// ageRun is a stretch of oldestOf's candidates that are consecutive in
// ascending vpage order and share one last-use time: the pieces
// first..end-1 of the VM's age list, each a word's share of the run.
type ageRun struct {
	last       sim.Time
	first, end int
}

// runFirst orders page-out runs by (last use, first piece). Runs are
// disjoint stretches of the ascending candidate list, so of two runs with
// one time, the one that starts first lies wholly below the other, and
// expanding the runs in this order lists the pages in (last use, vpage)
// order.
func runFirst(a, b ageRun) int {
	if c := cmp.Compare(a.last, b.last); c != 0 {
		return c
	}
	return cmp.Compare(a.first, b.first)
}

// agePiece is a word's share of an age run: the candidates mask of word wi.
type agePiece struct {
	wi   int
	mask uint64
}

// ageList is oldestOf's scratch: the candidates in ascending vpage order as
// word pieces, cut into runs of one last-use time.
type ageList struct {
	pieces []agePiece
	runs   []ageRun
}

// add appends the candidates mask of word wi, all last used at last and
// above every candidate added before. They join the last run when it has
// the same time, and the last piece when that is the same word.
func (l *ageList) add(wi int, mask uint64, last sim.Time) {
	if n := len(l.runs); n > 0 && l.runs[n-1].last == last {
		if p := &l.pieces[len(l.pieces)-1]; p.wi == wi {
			p.mask |= mask
			return
		}
		l.pieces = append(l.pieces, agePiece{wi, mask})
		l.runs[n-1].end++
		return
	}
	l.pieces = append(l.pieces, agePiece{wi, mask})
	l.runs = append(l.runs, ageRun{last, len(l.pieces) - 1, len(l.pieces)})
}

// lowBits returns the n lowest set bits of m.
func lowBits(m uint64, n int) uint64 {
	var low uint64
	for ; n > 0 && m != 0; n-- {
		low |= m & -m
		m &= m - 1
	}
	return low
}

// dirtyWord is one non-empty dirty-map word queued for the write-back
// selection, keyed by its bound on the lastUse of its dirty pages.
type dirtyWord struct {
	bound sim.Time
	wi    int
}

// wordFirst orders the write-back word heap: youngest bound first, lower
// word index first among equal bounds.
func wordFirst(a, b dirtyWord) bool {
	if a.bound != b.bound {
		return a.bound > b.bound
	}
	return a.wi < b.wi
}

func wordSiftDown(heap []dirtyWord, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		first := i
		if l < len(heap) && wordFirst(heap[l], heap[first]) {
			first = l
		}
		if r < len(heap) && wordFirst(heap[r], heap[first]) {
			first = r
		}
		if first == i {
			break
		}
		heap[i], heap[first] = heap[first], heap[i]
		i = first
	}
}

// dirtyBatch gathers one process's dirty victims for a coalesced
// write-back: n pages, whose bits are set in set, a bitmap the size of the
// address space that is zero outside words lo to hi-1. The bitmaps are VM
// scratch (batchSet), since cutRuns turns them into runs and clears them
// before the eviction call returns.
type dirtyBatch struct {
	as        *AddressSpace
	set       []uint64
	lo, hi, n int
}

// batchSet returns the i'th dirty batch's bitmap, words long and zero.
func (v *VM) batchSet(i, words int) []uint64 {
	if i == len(v.batchSets) {
		v.batchSets = append(v.batchSets, nil)
	}
	if len(v.batchSets[i]) < words {
		v.batchSets[i] = make([]uint64, words)
	}
	return v.batchSets[i][:words]
}

// ensureFree makes room for an allocation of n frames, running a reclaim
// pass when free memory would drop below freepages.min — the
// try_to_free_pages trigger (mem.Physical.ReclaimTarget). It reports how
// many of the n frames are free afterwards (fewer than n when nothing more
// is evictable).
func (v *VM) ensureFree(n int) int {
	v.reclaim(v.phys.ReclaimTarget(n))
	return min(n, v.phys.NumFree())
}

// Reclaim frees up to target frames using the active victim policy,
// batching dirty write-back into coalesced disk requests. It returns the
// number of frames freed. This is the try_to_free_pages analogue; the
// selective page-out algorithm of Figure 2 is obtained by setting
// PolicySelective plus SetOutgoing.
func (v *VM) Reclaim(target int) int { return v.reclaim(target) }

func (v *VM) reclaim(target int) int {
	if target <= 0 {
		return 0
	}
	v.stats.ReclaimPasses++
	pass := &v.pass
	pass.reset()
	victims := v.victimScratch[:0]
	switch v.policy {
	case PolicySelective:
		victims = v.selectSelective(target, victims, pass)
	default:
		victims, _ = v.selectDefault(target, victims, pass)
	}
	if v.cfg.ClusterOut > 1 {
		victims = v.expandClusters(victims, pass)
	}
	v.victimScratch = victims[:0]
	n := v.evict(victims, disk.Demand)
	if v.obs != nil {
		v.obs.Bus.Emit(obs.Event{
			T:       v.eng.Now(),
			Kind:    obs.KindReclaimScan,
			Node:    v.obs.Node,
			Scanned: pass.scanned,
			Pages:   n,
		})
	}
	return n
}

// expandClusters grows each victim page into a contiguous block of cold
// pages of the same process (blind block page-out): forward from the page,
// then backward. Pages that are referenced, aged, in flight or already
// selected stay resident. A forward block joins the last victim appended
// when it continues that victim's word upwards, so the order of the pages
// is kept; every backward page is a victim of its own.
func (v *VM) expandClusters(victims []victim, pass *reclaimPass) []victim {
	out, selected := victims, len(victims)
	for _, vi := range victims {
		as := vi.as
		for m := vi.mask; m != 0; m &= m - 1 {
			vp0 := vi.wi<<6 + bits.TrailingZeros64(m)
			added := 0
			for _, dir := range [2]int{1, -1} {
				for off := dir; added < v.cfg.ClusterOut-1; off += dir {
					vp := vp0 + off
					if vp < 0 || vp >= as.numPages {
						break
					}
					if !bit(as.settled, vp) || pass.has(as, vp) || bit(as.ref, vp) || as.age[vp] > 0 {
						break
					}
					wi, b := vp>>6, uint64(1)<<(uint(vp)&63)
					pass.add(as, wi, b)
					if n := len(out); n > selected && out[n-1].as == as && out[n-1].wi == wi && out[n-1].mask < b {
						out[n-1].mask |= b
					} else {
						out = append(out, victim{as, wi, b})
					}
					added++
				}
			}
		}
	}
	return out
}

// reclaimPass tracks pages already chosen during one reclaim pass so that
// successive sweeps (selective + fallback, or repeated clock sweeps of the
// same process) never select a page twice before eviction happens. The
// taken sets live on the address spaces, stamped with the pass generation:
// starting a pass is one increment, and an address space's bitmap is
// cleared only when the pass first adds to it. The generation is a uint64,
// so it cannot wrap round to a stale stamp.
type reclaimPass struct {
	gen     uint64
	scanned int // pages examined across all sweeps of the pass
}

func (rp *reclaimPass) reset() {
	rp.gen++
	rp.scanned = 0
}

func (rp *reclaimPass) has(as *AddressSpace, vp int) bool {
	return as.passGen == rp.gen && as.passTaken[vp>>6]&(1<<(uint(vp)&63)) != 0
}

// add marks the pages of mask in word wi taken.
func (rp *reclaimPass) add(as *AddressSpace, wi int, mask uint64) {
	if as.passGen != rp.gen {
		as.passGen = rp.gen
		clear(as.passTaken)
		as.passCount = 0
	}
	as.passCount += bits.OnesCount64(mask &^ as.passTaken[wi])
	as.passTaken[wi] |= mask
}

// takenFrom reports how many pages of as this pass has already selected.
func (rp *reclaimPass) takenFrom(as *AddressSpace) int {
	if as.passGen != rp.gen {
		return 0
	}
	return as.passCount
}

// selectDefault implements the Linux 2.2 swap_out heuristic: scanning
// effort rotates across processes via per-process swap counters. Each scan
// cycle initialises every process's counter to its resident size; the
// process with the largest remaining counter is swept next, and its counter
// drops by the pages scanned. Scanning burden is therefore proportional to
// resident size, so a stopped process's decayed pages are steadily found
// (and drained) even while a larger, actively-referenced process would
// otherwise monopolise the sweep. Fresh pages of the faulting process still
// get selected once their age drains — the paper's false eviction. It
// returns out like append, and the number of pages it selected.
func (v *VM) selectDefault(target int, out []victim, pass *reclaimPass) ([]victim, int) {
	got := 0
	cycles := 0
	for got < target && cycles < 3 {
		i := v.maxSwapCnt()
		if i < 0 {
			// Cycle exhausted: restart it (bounded per pass so reclaim
			// cannot decay the whole system's ages in one call).
			cycles++
			v.resetSwapCnt()
			continue
		}
		as := v.swapOrder[i]
		scanned, n := v.clockSweep(as, as.swapCnt, target-got, &out, pass)
		got += n
		if scanned == 0 {
			v.lowerSwapCnt(i, 0)
			continue
		}
		v.lowerSwapCnt(i, max(as.swapCnt-scanned, 0))
	}
	return out, got
}

// maxSwapCnt returns the index in swapOrder of the live process with
// resident pages and the largest remaining scan counter, lowest pid first
// among equal counters, or -1 when the cycle is spent. swapOrder lists
// exactly the processes whose counter is positive, in that order, so the
// pick is its first entry with resident pages.
func (v *VM) maxSwapCnt() int {
	for i, as := range v.swapOrder {
		if as.resident > 0 {
			return i
		}
	}
	return -1
}

// swapsBefore reports whether a precedes a process with scan counter n and
// the given pid in swapOrder.
func swapsBefore(a *AddressSpace, n, pid int) bool {
	return a.swapCnt > n || a.swapCnt == n && a.pid < pid
}

// lowerSwapCnt sets the scan counter of swapOrder[i] to n, no more than it
// was, and keeps swapOrder in order: a spent counter leaves the list, and
// a lowered one moves back past the entries that now precede it.
func (v *VM) lowerSwapCnt(i, n int) {
	as := v.swapOrder[i]
	as.swapCnt = n
	if n == 0 {
		v.swapOrder = slices.Delete(v.swapOrder, i, i+1)
		return
	}
	rest := v.swapOrder[i+1:]
	k := sort.Search(len(rest), func(k int) bool { return !swapsBefore(rest[k], n, as.pid) })
	copy(v.swapOrder[i:], rest[:k])
	v.swapOrder[i+k] = as
}

// resetSwapCnt starts a swap_out cycle: every process's scan counter is
// its resident size, and swapOrder lists those with resident pages,
// largest counter first. The process table is in ascending pid order and
// the sort is stable, so equal counters stay in pid order.
func (v *VM) resetSwapCnt() {
	clear(v.swapOrder) // drop stale entries past the new length
	order := v.swapOrder[:0]
	for _, as := range v.procs {
		as.swapCnt = as.resident
		if as.swapCnt > 0 {
			order = append(order, as)
		}
	}
	slices.SortStableFunc(order, func(a, b *AddressSpace) int { return cmp.Compare(b.swapCnt, a.swapCnt) })
	v.swapOrder = order
}

// clockSweep advances as's clock hand for at most one revolution,
// selecting up to max unreferenced pages and clearing reference bits as it
// goes. One revolution per call matters: a process that re-touches its
// pages between reclaim passes keeps them protected (second-chance), while
// a stopped process's bits decay and its pages become victims — the
// dynamics behind the paper's false-eviction observation.
//
// The candidates are the resident pages the pass has not taken. The sweep
// finds them a bitmap word at a time and steps over every other page
// without visiting it. It examines at most scanMax candidates and stops
// with the hand just past the page that reached either limit, or, after a
// whole revolution, where it started. A word whose candidates cannot reach
// either limit is swept whole; only the word where the sweep may stop goes
// page by page. Each word's victims are one mask.
func (v *VM) clockSweep(as *AddressSpace, scanMax, max int, out *[]victim, pass *reclaimPass) (scanned, got int) {
	if as.resident-pass.takenFrom(as) <= 0 || max <= 0 || scanMax <= 0 {
		return 0, 0
	}
	start := as.hand
	for _, seg := range [2][2]int{{start, as.numPages}, {0, start}} {
		for lo, hi := seg[0], seg[1]; lo < hi; lo = (lo | 63) + 1 {
			wi := lo >> 6
			w := as.settled[wi] & (^uint64(0) << (uint(lo) & 63))
			if end := wi<<6 + 64; end > hi {
				w &= ^uint64(0) >> uint(end-hi)
			}
			if as.passGen == pass.gen {
				w &^= as.passTaken[wi]
			}
			if w == 0 {
				continue
			}
			if n := bits.OnesCount64(w); scanned+n < scanMax && got+n < max {
				taken := v.sweepWord(as, wi, w)
				scanned += n
				got += v.take(as, wi, taken, out, pass)
				continue
			}
			var taken uint64
			for ; w != 0; w &= w - 1 {
				vp := wi<<6 + bits.TrailingZeros64(w)
				scanned++
				if b := w & -w; v.sweepWord(as, wi, b) != 0 {
					taken |= b
					got++
				}
				if got == max || scanned == scanMax {
					v.take(as, wi, taken, out, pass)
					as.hand = vp + 1
					if as.hand == as.numPages {
						as.hand = 0
					}
					pass.scanned += scanned
					return scanned, got
				}
			}
			v.take(as, wi, taken, out, pass)
		}
	}
	pass.scanned += scanned
	return scanned, got
}

// sweepWord is the clock's visit to the candidates w of word wi. A
// referenced page loses its bit and gains age (rejuvenated), a cold page
// with age left loses one (decays towards evictable), and an unreferenced
// page at age 0 is taken: it returns the mask of those.
func (v *VM) sweepWord(as *AddressSpace, wi int, w uint64) (taken uint64) {
	refd := w & as.ref[wi]
	as.ref[wi] &^= refd
	ages := as.age[wi<<6 : min(wi<<6+64, as.numPages)]
	for r := refd; r != 0; r &= r - 1 {
		i := bits.TrailingZeros64(r)
		ages[i] = uint8(min(int(ages[i])+v.cfg.AgeAdvance, v.cfg.AgeMax))
	}
	for c := w &^ refd; c != 0; c &= c - 1 {
		if i := bits.TrailingZeros64(c); ages[i] > 0 {
			ages[i]--
		} else {
			taken |= c & -c
		}
	}
	return taken
}

// take appends the pages of mask in word wi to out as one victim and marks
// them taken, returning how many there are.
func (v *VM) take(as *AddressSpace, wi int, mask uint64, out *[]victim, pass *reclaimPass) int {
	if mask == 0 {
		return 0
	}
	*out = append(*out, victim{as, wi, mask})
	pass.add(as, wi, mask)
	return bits.OnesCount64(mask)
}

// selectSelective implements the paper's selective page-out (Figure 2):
// victims come from the outgoing process in order of decreasing age; other
// processes are considered only when the outgoing process has no resident
// pages left.
func (v *VM) selectSelective(target int, out []victim, pass *reclaimPass) []victim {
	got := 0
	if v.outgoing != 0 {
		if as := v.Process(v.outgoing); as != nil {
			out, got = v.oldestOf(as, target, out, pass)
		}
	}
	if got < target {
		out, _ = v.selectDefault(target-got, out, pass)
	}
	return out
}

// oldestOf appends up to max of as's resident pages to out, oldest first,
// skipping pages the current pass has already selected and marking the ones
// it takes. It returns out like append, and the number of pages it took.
//
// It sorts runs, not pages. The candidates are collected in ascending vpage
// order a bitmap word at a time and cut into runs wherever the last-use
// time changes; the runs are sorted by (time, first candidate) and expanded
// in that order until max pages are out, the last run from its lowest
// pages up. That is the (last use, vpage) order of a sort of every page
// (see runFirst), at the cost of sorting a handful of runs: a touch chunk
// stamps thousands of pages with one time. A word whose candidates all read
// the word's one stamp (wordUse) joins its run whole; only the candidates
// of other words are timed page by page.
func (v *VM) oldestOf(as *AddressSpace, max int, out []victim, pass *reclaimPass) ([]victim, int) {
	if as.resident == 0 || max <= 0 {
		return out, 0
	}
	l := &v.ages
	taken := as.passGen == pass.gen
	cands := 0
	for wi, w := range as.settled {
		if taken {
			w &^= as.passTaken[wi]
		}
		if w == 0 {
			continue
		}
		cands += bits.OnesCount64(w)
		if w&^as.wordFull[wi] == 0 {
			l.add(wi, w, as.wordUse[wi])
			continue
		}
		for ; w != 0; w &= w - 1 {
			l.add(wi, w&-w, as.lastUsed(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	pass.scanned += cands
	slices.SortFunc(l.runs, runFirst)
	n := min(max, cands)
	left := n
	for _, r := range l.runs {
		for _, p := range l.pieces[r.first:r.end] {
			if c := bits.OnesCount64(p.mask); c <= left {
				left -= c
			} else {
				p.mask, left = lowBits(p.mask, left), 0
			}
			out = append(out, victim{as, p.wi, p.mask})
			pass.add(as, p.wi, p.mask)
			if left == 0 {
				break
			}
		}
		if left == 0 {
			break
		}
	}
	l.pieces, l.runs = l.pieces[:0], l.runs[:0]
	return out, n
}

// evict releases the victims' frames, reports them to the page-out hook,
// and queues one coalesced write-back per owning process for the dirty
// ones. Clean pages whose swap copy is valid are dropped for free. It works
// a victim mask at a time and returns the number of pages evicted.
func (v *VM) evict(victims []victim, prio disk.Priority) int {
	// Dirty victims are batched per owning process, in first-appearance
	// order (the disk submission order must not depend on anything else).
	// Victims come in stretches of one process, so the batch is looked up
	// once per stretch, among the few batches of this call. The batch slice
	// and its bitmaps are VM scratch, reused across evictions.
	batches := v.batchScratch[:0]
	var batchAS *AddressSpace
	bi := 0
	pages, dirtied := 0, 0
	for _, vi := range victims {
		as, wi, m := vi.as, vi.wi, vi.mask
		if out := m &^ as.settled[wi]; out != 0 {
			panic(fmt.Sprintf("vm: evicting non-resident page %d of pid %d", wi<<6+bits.TrailingZeros64(out), as.pid))
		}
		if dirty := m & as.dirtyMap[wi]; dirty != 0 {
			dirtied += bits.OnesCount64(dirty)
			as.dirtyMap[wi] &^= dirty
			if as != batchAS {
				batchAS, bi = as, 0
				for bi < len(batches) && batches[bi].as != as {
					bi++
				}
				if bi == len(batches) {
					batches = append(batches, dirtyBatch{as: as, set: v.batchSet(bi, len(as.settled)), lo: wi, hi: wi + 1})
				}
			}
			b := &batches[bi]
			b.set[wi] |= dirty
			b.lo, b.hi = min(b.lo, wi), max(b.hi, wi+1)
			b.n += bits.OnesCount64(dirty)
			for ; dirty != 0; dirty &= dirty - 1 {
				v.queueWriteBack(as, wi<<6+bits.TrailingZeros64(dirty))
			}
		}
		as.settled[wi] &^= m
		as.ref[wi] &^= m
		as.bgClean[wi] &^= m
		n := bits.OnesCount64(m)
		pages += n
		as.resident -= n
		as.mapped -= n
		v.residentSum -= n
		if as.swEvict != nil && as.stopped {
			// The owner is descheduled: this eviction is switch-time paging,
			// so a later fault on the page counts as switch overhead.
			for b := m; b != 0; b &= b - 1 {
				as.swEvict[wi<<6+bits.TrailingZeros64(b)] = true
			}
		}
		if v.OnPageOut != nil {
			v.OnPageOut(as.pid, wi, m)
		}
	}
	// Nothing above reads the free count (the page-out hook included), so
	// the frames go back in one release.
	v.phys.Release(pages)
	if v.acct != nil && pages > 0 {
		v.acct.Unmapped(pages, dirtied)
	}
	for i := range batches {
		b := &batches[i]
		n := int64(b.n)
		v.stats.PagesOut += n
		b.as.stats.PagesOut += n
		if v.obs != nil {
			v.obs.PageOutBatch.Observe(float64(n))
			v.obs.Bus.Emit(obs.Event{
				T:     v.eng.Now(),
				Kind:  obs.KindPageOutBatch,
				Node:  v.obs.Node,
				PID:   b.as.pid,
				Pages: int(n),
				Prio:  prio.String(),
			})
		}
		v.submitWriteBack(b.as, b.set, b.lo, b.hi, b.n, prio)
	}
	v.batchScratch = batches[:0]
	return pages
}

// queueWriteBack accounts one queued (not yet completed) write of vp.
func (v *VM) queueWriteBack(as *AddressSpace, vp int) {
	if as.wbPending[vp] == ^uint16(0) {
		panic(fmt.Sprintf("vm: write-back pending overflow on pid %d vpage %d", as.pid, vp))
	}
	as.wbPending[vp]++
	as.wbPages++
	v.wbPendingPages++
	if v.acct != nil {
		v.acct.WBQueued()
	}
}

// submitWriteBack issues coalesced write transactions for the n pages of
// as set in words lo to hi-1 of set: cutRuns cuts them into runs, clearing
// the words, and each run is one request, whose completion marks exactly
// its run's slots valid. This mirrors readIn on the read side.
func (v *VM) submitWriteBack(as *AddressSpace, set []uint64, lo, hi, n int, prio disk.Priority) {
	runs := v.cutRuns(v.writeRuns[:0], set, lo, hi)
	v.writeRuns = runs
	b := v.getBatch()
	b.as, b.write, b.drain = as, true, v.drain
	v.drain.Hold(len(runs))
	v.drain.Add(n)
	v.submitRuns(b, runs, prio, v.drain.Span())
}

// completeWrite records that one write transaction, the n pages from vp,
// reached the device: those pages now have a valid swap copy. Completions
// for a process that exited while the write was queued are ignored — its
// region was released at destroy time and may already belong to a new
// process, so a late write must not resurrect slot state. The gone flag
// lives on the destroyed address space itself, so pid reuse cannot confuse
// it. Crash-dropped writes never get here: Disk.Reset's epoch guard
// swallows their completions.
func (v *VM) completeWrite(as *AddressSpace, vp, n int) {
	if as.gone {
		return
	}
	end := vp + n
	for p, pending := range as.wbPending[vp:end] {
		if pending == 0 {
			panic(fmt.Sprintf("vm: write-back completion without a pending write on pid %d vpage %d", as.pid, vp+p))
		}
		as.wbPending[vp+p]--
	}
	as.wbPages -= n
	v.wbPendingPages -= n
	for wi := vp >> 6; wi<<6 < end; wi++ {
		as.onDisk[wi] |= wordMask(wi, vp, end)
	}
	if v.acct != nil {
		v.acct.WBLanded(n)
	}
}

// ReclaimFrom evicts up to max resident pages of pid, oldest first,
// regardless of the active policy. This is the aggressive page-out
// building block (Figure 3): the gang scheduler calls it at a job switch to
// instantly make room for the incoming working set.
func (v *VM) ReclaimFrom(pid, max int) int {
	as := v.mustProc(pid)
	v.pass.reset()
	victims, _ := v.oldestOf(as, max, v.victimScratch[:0], &v.pass)
	v.victimScratch = victims[:0]
	return v.evict(victims, disk.Demand)
}

// DirtyPages reports how many of pid's resident pages are dirty.
func (v *VM) DirtyPages(pid int) int {
	n := 0
	for _, w := range v.mustProc(pid).dirtyMap {
		n += bits.OnesCount64(w)
	}
	return n
}

// WriteBackDirty writes up to max dirty resident pages of pid to their swap
// slots without evicting them, marking them clean. The background-writing
// daemon (§3.4) calls this with disk.Background priority; it returns the
// number of pages queued for writing.
//
// Pages are taken youngest-first (most recently written): behind an
// iterating application's sweep cursor those are the pages that have
// received their final store of the quantum, so cleaning them is least
// likely to be wasted by re-dirtying — the §3.4 concern about "writing of
// same pages repeatedly".
func (v *VM) WriteBackDirty(pid, max int, prio disk.Priority) int {
	as := v.mustProc(pid)
	if max <= 0 {
		return 0
	}
	kept, scanned := v.youngestDirty(as, max)
	if len(kept) == 0 {
		return 0
	}
	set := v.scratchSet(len(as.settled))
	lo, hi := len(set), 0
	for _, d := range kept {
		vp := d.vp
		clearBit(as.dirtyMap, vp)
		setBit(as.bgClean, vp)
		v.queueWriteBack(as, vp)
		setBit(set, vp)
		lo = min(lo, vp>>6)
		if vp>>6 >= hi {
			hi = vp>>6 + 1
		}
	}
	if v.acct != nil {
		v.acct.PagesCleaned(len(kept))
	}
	v.tightenDirtyBounds(as, scanned)
	n := int64(len(kept))
	if prio == disk.Background {
		v.stats.BGPagesOut += n
	} else {
		v.stats.PagesOut += n
		as.stats.PagesOut += n
	}
	if v.obs != nil {
		v.obs.PageOutBatch.Observe(float64(n))
		v.obs.Bus.Emit(obs.Event{
			T:     v.eng.Now(),
			Kind:  obs.KindPageOutBatch,
			Node:  v.obs.Node,
			PID:   as.pid,
			Pages: int(n),
			Prio:  prio.String(),
		})
	}
	v.submitWriteBack(as, set, lo, hi, len(kept), prio)
	return int(n)
}

// youngestDirty selects as's max youngest dirty pages — the top max by
// (lastUse descending, vpage ascending). The daemon runs every ~100 ms, so
// the selection must cost in proportion to what it keeps, not to the dirty
// set: it visits dirty-map words youngest bound first, lower index first
// among equal bounds, and stops once the kept set is full and the next word
// cannot hold a page that would get in (settled). Later words are no better
// than that one, and the kept set's oldest page only gets younger, so the
// kept set is exactly what a scan of every dirty page would keep. The tie
// rule matters because a whole touch chunk shares one timestamp: among its
// words only the lowest few can hold a kept page.
//
// The words at the youngest bound come straight from the pass that finds
// the non-empty words, in index order, which is their visiting order. Only
// when they do not settle the selection are the remaining words collected
// and heapified. The kept set fills by appending and is heapified once,
// when it is full, into a min-heap whose root, its oldest page, younger
// pages displace. It returns the kept set and the indexes of the words it
// scanned, both VM scratch.
func (v *VM) youngestDirty(as *AddressSpace, max int) (kept []aged, scanned []int) {
	top := v.topScratch[:0]
	var topBound, nextBound sim.Time // the youngest bound, and the youngest below it
	rest := false                    // a non-empty word has a bound below topBound
	for wi, w := range as.dirtyMap {
		if w == 0 {
			continue
		}
		switch b := as.dirtyBound[wi]; {
		case len(top) == 0 || b > topBound:
			if len(top) > 0 {
				nextBound, rest = topBound, true
			}
			top, topBound = append(top[:0], wi), b
		case b == topBound:
			top = append(top, wi)
		default:
			if b > nextBound {
				nextBound = b
			}
			rest = true
		}
	}
	kept, scanned = v.agedScratch[:0], v.scanScratch[:0]
	for _, wi := range top {
		if settled(kept, max, dirtyWord{topBound, wi}) {
			rest = false
			break
		}
		scanned = append(scanned, wi)
		kept = keepDirty(kept, max, as, wi)
	}
	if rest && (len(kept) < max || nextBound >= kept[0].last) {
		words := v.wordScratch[:0]
		for wi, w := range as.dirtyMap {
			if w != 0 && as.dirtyBound[wi] < topBound {
				words = append(words, dirtyWord{as.dirtyBound[wi], wi})
			}
		}
		for i := len(words)/2 - 1; i >= 0; i-- {
			wordSiftDown(words, i)
		}
		for len(words) > 0 && !settled(kept, max, words[0]) {
			next := words[0]
			last := len(words) - 1
			words[0] = words[last]
			words = words[:last]
			wordSiftDown(words, 0)
			scanned = append(scanned, next.wi)
			kept = keepDirty(kept, max, as, next.wi)
		}
		v.wordScratch = words[:0]
	}
	v.topScratch = top[:0]
	v.agedScratch = kept[:0]
	v.scanScratch = scanned[:0]
	return kept, scanned
}

// settled reports whether the kept set is full and word d cannot hold a
// page that would get in: its bound is older than the kept set's oldest
// page, or as old with every vpage of the word above that page's.
func settled(kept []aged, max int, d dirtyWord) bool {
	if len(kept) < max {
		return false
	}
	oldest := kept[0]
	return d.bound < oldest.last || d.bound == oldest.last && d.wi<<6 > oldest.vp
}

// keepDirty offers the dirty pages of word wi to the kept set: appended
// while there is room, heapified once when it fills, and displacing its
// oldest page after that when younger.
func keepDirty(kept []aged, max int, as *AddressSpace, wi int) []aged {
	for word := as.dirtyMap[wi]; word != 0; word &= word - 1 {
		vp := wi<<6 + bits.TrailingZeros64(word)
		entry := aged{vp, as.lastUsed(vp)}
		switch {
		case len(kept) < max:
			kept = append(kept, entry)
			if len(kept) == max {
				for i := max/2 - 1; i >= 0; i-- {
					agedSiftDown(kept, i)
				}
			}
		case agedLess(kept[0], entry):
			kept[0] = entry
			agedSiftDown(kept, 0)
		}
	}
	return kept
}

// tightenDirtyBounds lowers the bound of each scanned word to the youngest
// lastUse among its remaining dirty pages, or zero when none remain.
func (v *VM) tightenDirtyBounds(as *AddressSpace, scanned []int) {
	for _, wi := range scanned {
		var bound sim.Time
		for word := as.dirtyMap[wi]; word != 0; word &= word - 1 {
			vp := wi<<6 + bits.TrailingZeros64(word)
			if t := as.lastUsed(vp); t > bound {
				bound = t
			}
		}
		as.dirtyBound[wi] = bound
	}
}
