package vm

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/disk"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// victim names one evictable page.
type victim struct {
	as    *AddressSpace
	vpage int
}

// aged pairs a virtual page with its frame's last-use time; scratch element
// for the oldest-first and youngest-first selections.
type aged struct {
	vp   int
	last sim.Time
}

// agedLess orders the write-back selection min-heap by (LastUse, descending
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

func agedSiftUp(heap []aged, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !agedLess(heap[i], heap[parent]) {
			break
		}
		heap[i], heap[parent] = heap[parent], heap[i]
		i = parent
	}
}

func agedSiftDown(heap []aged) {
	i := 0
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

// oldestFirst orders the page-out candidates by (LastUse, vpage). It is a
// total order, so the sorted prefix does not depend on the sort algorithm.
func oldestFirst(a, b aged) int {
	if c := cmp.Compare(a.last, b.last); c != 0 {
		return c
	}
	return cmp.Compare(a.vp, b.vp)
}

// dirtyWord is one non-empty dirty-map word queued for the write-back
// selection, keyed by its bound on the LastUse of its dirty pages.
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

// dirtyBatch groups one process's dirty victims for a coalesced write-back.
// The page list is a pooled group buffer: it must outlive the eviction call
// (until the write transfers complete), so unlike the batch slice itself it
// cannot be flat VM scratch.
type dirtyBatch struct {
	as    *AddressSpace
	pages []int
}

// ensureFree makes room for an allocation of n frames, running a reclaim
// pass when free memory would drop below freepages.min — the
// try_to_free_pages trigger. It reports how many frames are actually free
// afterwards (possibly fewer than n when nothing more is evictable).
func (v *VM) ensureFree(n int) int {
	if v.phys.NumFree()-n >= v.phys.FreeMin() {
		return n
	}
	target := v.phys.FreeHigh() + n - v.phys.NumFree()
	if target > 0 {
		v.reclaim(target)
	}
	if free := v.phys.NumFree(); free < n {
		return free
	}
	return n
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
		victims = v.selectDefault(target, victims, pass)
	}
	if v.cfg.ClusterOut > 1 {
		victims = v.expandClusters(victims, pass)
	}
	v.victimScratch = victims[:0]
	v.evict(victims, disk.Demand)
	if v.obs != nil {
		v.obs.ReclaimPasses.Inc()
		v.obs.Bus.Emit(obs.Event{
			T:       v.eng.Now(),
			Kind:    obs.KindReclaimScan,
			Node:    v.obs.Node,
			Scanned: pass.scanned,
			Pages:   len(victims),
		})
	}
	return len(victims)
}

// expandClusters grows each victim into a contiguous block of cold pages
// of the same process (blind block page-out). Pages that are referenced,
// aged, in flight or already selected stay resident.
func (v *VM) expandClusters(victims []victim, pass *reclaimPass) []victim {
	out := victims
	for _, vi := range victims {
		as := vi.as
		added := 0
		for _, dir := range [2]int{1, -1} {
			for off := dir; added < v.cfg.ClusterOut-1; off += dir {
				vp := vi.vpage + off
				if vp < 0 || vp >= as.numPages {
					break
				}
				fid := as.frames[vp]
				if fid == mem.NoFrame || as.inFlight[vp] || pass.has(as, vp) {
					break
				}
				f := v.phys.Frame(fid)
				if f.Referenced || f.Age > 0 {
					break
				}
				pass.add(as, vp)
				out = append(out, victim{as, vp})
				added++
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

func (rp *reclaimPass) add(as *AddressSpace, vp int) {
	if as.passGen != rp.gen {
		as.passGen = rp.gen
		clear(as.passTaken)
		as.passCount = 0
	}
	w, bit := vp>>6, uint64(1)<<(uint(vp)&63)
	if as.passTaken[w]&bit == 0 {
		as.passTaken[w] |= bit
		as.passCount++
	}
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
// get selected once their age drains — the paper's false eviction.
func (v *VM) selectDefault(target int, out []victim, pass *reclaimPass) []victim {
	base := len(out)
	cycles := 0
	for len(out)-base < target && cycles < 3 {
		pid := v.maxSwapCnt()
		if pid == 0 {
			// Cycle exhausted: restart it (bounded per pass so reclaim
			// cannot decay the whole system's ages in one call).
			cycles++
			v.resetSwapCnt()
			continue
		}
		as := v.procs[pid]
		scanned, _ := v.clockSweep(as, v.swapCnt[pid], target-(len(out)-base), &out, pass)
		if scanned == 0 {
			v.swapCnt[pid] = 0
			continue
		}
		v.swapCnt[pid] -= scanned
		if v.swapCnt[pid] < 0 {
			v.swapCnt[pid] = 0
		}
	}
	return out
}

// maxSwapCnt returns the live process with the largest remaining scan
// counter (deterministic tie-break on pid), or 0 when the cycle is spent.
func (v *VM) maxSwapCnt() int {
	best, bestN := 0, 0
	for pid, n := range v.swapCnt {
		if v.procs[pid] == nil || v.procs[pid].resident == 0 {
			continue
		}
		if n > bestN || (n == bestN && n > 0 && pid < best) {
			best, bestN = pid, n
		}
	}
	if bestN == 0 {
		return 0
	}
	return best
}

func (v *VM) resetSwapCnt() {
	for pid := range v.swapCnt {
		delete(v.swapCnt, pid)
	}
	for pid, as := range v.procs {
		if as.resident > 0 {
			v.swapCnt[pid] = as.resident
		}
	}
}

// clockSweep advances pid's clock hand over its address space for at most
// one revolution, selecting up to max unreferenced pages and clearing
// reference bits as it goes. One revolution per call matters: a process
// that re-touches its pages between reclaim passes keeps them protected
// (second-chance), while a stopped process's bits decay and its pages
// become victims — the dynamics behind the paper's false-eviction
// observation.
func (v *VM) clockSweep(as *AddressSpace, scanMax, max int, out *[]victim, pass *reclaimPass) (scanned, got int) {
	if as.resident-pass.takenFrom(as) <= 0 || max <= 0 || scanMax <= 0 {
		return 0, 0
	}
	hand := v.hands[as.pid]
	frames, inFlight := as.frames, as.inFlight
	table := v.phys.Frames()
	for step := 0; step < as.numPages && got < max && scanned < scanMax; step++ {
		vp := hand
		hand++
		if hand >= as.numPages {
			hand = 0
		}
		fid := frames[vp]
		if fid == mem.NoFrame || inFlight[vp] || pass.has(as, vp) {
			continue
		}
		scanned++
		pass.scanned++
		f := &table[fid]
		if f.Referenced {
			// Referenced since the last revolution: rejuvenate.
			f.Referenced = false
			age := int(f.Age) + v.cfg.AgeAdvance
			if age > v.cfg.AgeMax {
				age = v.cfg.AgeMax
			}
			f.Age = uint8(age)
			continue
		}
		if f.Age > 0 {
			// Cold but not yet old enough: decay towards evictable.
			f.Age--
			continue
		}
		*out = append(*out, victim{as, vp})
		pass.add(as, vp)
		got++
	}
	v.hands[as.pid] = hand
	return scanned, got
}

// selectSelective implements the paper's selective page-out (Figure 2):
// victims come from the outgoing process in order of decreasing age; other
// processes are considered only when the outgoing process has no resident
// pages left.
func (v *VM) selectSelective(target int, out []victim, pass *reclaimPass) []victim {
	base := len(out)
	if v.outgoing != 0 {
		if as := v.procs[v.outgoing]; as != nil {
			out = v.oldestOf(as, target, out, pass)
		}
	}
	if got := len(out) - base; got < target {
		out = v.selectDefault(target-got, out, pass)
	}
	return out
}

// oldestOf appends up to max of as's resident pages to out, oldest first,
// skipping pages the current pass has already selected and marking the ones
// it takes. It returns out like append.
func (v *VM) oldestOf(as *AddressSpace, max int, out []victim, pass *reclaimPass) []victim {
	if as.resident == 0 || max <= 0 {
		return out
	}
	cand := v.agedScratch[:0]
	table := v.phys.Frames()
	for vp, fid := range as.frames {
		if fid == mem.NoFrame || as.inFlight[vp] || pass.has(as, vp) {
			continue
		}
		cand = append(cand, aged{vp, table[fid].LastUse})
	}
	pass.scanned += len(cand)
	// A top-k would not pay here: page-out usually keeps most candidates.
	slices.SortFunc(cand, oldestFirst)
	v.agedScratch = cand[:0]
	if len(cand) > max {
		cand = cand[:max]
	}
	for _, c := range cand {
		out = append(out, victim{as, c.vp})
		pass.add(as, c.vp)
	}
	return out
}

// evict releases the victims' frames, records them with the page-out hook,
// and queues one coalesced write-back per owning process for the dirty
// ones. Clean pages whose swap copy is valid are dropped for free.
func (v *VM) evict(victims []victim, prio disk.Priority) {
	// Dirty batches are keyed per owning process but kept in a slice in
	// first-appearance order: map iteration order would randomise the disk
	// submission order across runs and break reproducibility. The batch
	// slice and its per-batch slot buffers are VM scratch, reused across
	// evictions.
	batches := v.batchScratch[:0]
	batchOf := v.batchOf
	clear(batchOf)
	dirtied := 0
	for _, vi := range victims {
		as, vp := vi.as, vi.vpage
		fid := as.frames[vp]
		if fid == mem.NoFrame || as.inFlight[vp] {
			panic(fmt.Sprintf("vm: evicting non-resident page %d of pid %d", vp, as.pid))
		}
		f := v.phys.Frame(fid)
		if f.Dirty {
			dirtied++
			as.clearDirtyBit(vp)
			i, ok := batchOf[as]
			if !ok {
				i = len(batches)
				batchOf[as] = i
				if i < cap(batches) {
					batches = batches[:i+1]
					batches[i].as = as
				} else {
					batches = append(batches, dirtyBatch{as: as})
				}
				batches[i].pages = v.getGroup()
			}
			batches[i].pages = append(batches[i].pages, vp)
			v.queueWriteBack(as, vp)
		}
		as.bgClean[vp] = false
		as.frames[vp] = mem.NoFrame
		as.resident--
		v.residentSum--
		if as.swEvict != nil && as.stopped {
			// The owner is descheduled: this eviction is switch-time paging,
			// so a later fault on the page counts as switch overhead.
			as.swEvict[vp] = true
		}
		v.phys.Release(fid)
		if v.OnPageOut != nil {
			v.OnPageOut(as.pid, vp)
		}
	}
	if v.acct != nil && len(victims) > 0 {
		v.acct.Unmapped(len(victims), dirtied)
	}
	for i := range batches {
		b := &batches[i]
		n := int64(len(b.pages))
		v.stats.PagesOut += n
		b.as.stats.PagesOut += n
		if v.obs != nil {
			v.obs.PagesOut.Add(float64(n))
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
		v.submitWriteBack(b.as, b.pages, prio)
		b.pages = nil // owned by the transfer completions now
	}
	v.batchScratch = batches[:0]
}

// queueWriteBack accounts one queued (not yet completed) write of vp.
func (v *VM) queueWriteBack(as *AddressSpace, vp int) {
	if as.wbPending[vp] == ^uint16(0) {
		panic(fmt.Sprintf("vm: write-back pending overflow on pid %d vpage %d", as.pid, vp))
	}
	as.wbPending[vp]++
	v.wbPendingPages++
	if v.acct != nil {
		v.acct.WBQueued()
	}
}

// submitWriteBack issues coalesced write transactions for the listed pages
// of as, taking ownership of pages (a pooled group buffer). Slots ascend
// with page numbers inside one region, so after sorting, each coalesced run
// corresponds to a consecutive chunk of pages — the completion of each
// transaction marks exactly its chunk's slots valid, and the buffer is
// recycled when the last one lands. This mirrors readIn on the read side.
func (v *VM) submitWriteBack(as *AddressSpace, pages []int, prio disk.Priority) {
	sort.Ints(pages)
	slots := v.slotScratch[:0]
	for _, vp := range pages {
		slots = append(slots, as.region.SlotFor(vp))
	}
	v.slotScratch = slots[:0]
	runs := v.coalesceSplit(slots)
	remaining := len(runs)
	idx := 0
	d := v.drain
	var parent obs.SpanID
	if d != nil {
		d.pending += len(runs)
		d.pages += len(pages)
		parent = d.span
	}
	for _, r := range runs {
		chunk := pages[idx : idx+r.N]
		idx += r.N
		v.dsk.Submit(&disk.Request{
			Runs:   []disk.Run{r},
			Write:  true,
			Prio:   prio,
			Parent: parent,
			Done: func(sim.Duration) {
				v.completeWrite(as, chunk)
				remaining--
				if remaining == 0 {
					v.putGroup(pages)
				}
				if d != nil {
					d.complete(v.eng.Now())
				}
			},
		})
	}
}

// completeWrite records that one write transaction reached the device: its
// pages now have a valid swap copy. Completions for a process that exited
// while the write was queued are ignored — its region was released at
// destroy time and may already belong to a new process, so a late write
// must not resurrect slot state (the pointer identity check also covers
// pid reuse). Crash-dropped writes never get here: Disk.Reset's epoch
// guard swallows their completions.
func (v *VM) completeWrite(as *AddressSpace, pages []int) {
	if v.procs[as.pid] != as {
		return
	}
	for _, vp := range pages {
		if as.wbPending[vp] == 0 {
			panic(fmt.Sprintf("vm: write-back completion without a pending write on pid %d vpage %d", as.pid, vp))
		}
		as.wbPending[vp]--
		v.wbPendingPages--
		as.onDisk[vp] = true
	}
	if v.acct != nil {
		v.acct.WBLanded(len(pages))
	}
}

// coalesceSplit coalesces slots (sorting them in place) and splits the runs
// at the transaction cap, using the VM's run scratch buffers. The returned
// slice is valid until the next coalesceSplit call; Submit copies each run.
func (v *VM) coalesceSplit(slots []disk.Slot) []disk.Run {
	v.runScratch = disk.AppendCoalesced(v.runScratch[:0], slots)
	v.splitScratch = disk.AppendSplitRuns(v.splitScratch[:0], v.runScratch, v.cfg.MaxIOPages)
	return v.splitScratch
}

// ReclaimFrom evicts up to max resident pages of pid, oldest first,
// regardless of the active policy. This is the aggressive page-out
// building block (Figure 3): the gang scheduler calls it at a job switch to
// instantly make room for the incoming working set.
func (v *VM) ReclaimFrom(pid, max int) int {
	as := v.mustProc(pid)
	v.pass.reset()
	victims := v.oldestOf(as, max, v.victimScratch[:0], &v.pass)
	v.victimScratch = victims[:0]
	v.evict(victims, disk.Demand)
	return len(victims)
}

// DirtyPages reports how many of pid's resident pages are dirty.
func (v *VM) DirtyPages(pid int) int {
	as := v.mustProc(pid)
	n := 0
	table := v.phys.Frames()
	for vp, fid := range as.frames {
		if fid == mem.NoFrame || as.inFlight[vp] {
			continue
		}
		if table[fid].Dirty {
			n++
		}
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
	frames, table := as.frames, v.phys.Frames()
	pages := v.getGroup()
	for _, d := range kept {
		vp := d.vp
		f := &table[frames[vp]]
		f.Dirty = false
		as.clearDirtyBit(vp)
		as.bgClean[vp] = true
		v.queueWriteBack(as, vp)
		pages = append(pages, vp)
	}
	if v.acct != nil {
		v.acct.PagesCleaned(len(pages))
	}
	v.tightenDirtyBounds(as, scanned)
	n := int64(len(pages))
	if prio == disk.Background {
		v.stats.BGPagesOut += n
		if v.obs != nil {
			v.obs.BGPagesOut.Add(float64(n))
		}
	} else {
		v.stats.PagesOut += n
		as.stats.PagesOut += n
		if v.obs != nil {
			v.obs.PagesOut.Add(float64(n))
		}
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
	v.submitWriteBack(as, pages, prio)
	return int(n)
}

// youngestDirty selects as's max youngest dirty pages — the top max by
// (LastUse descending, vpage ascending) — into a bounded min-heap whose
// root, the oldest kept page, is displaced by younger ones. The daemon
// runs every ~100 ms, so the selection must cost in proportion to what it
// keeps, not to the dirty set: it visits dirty-map words youngest bound
// first, lower index first among equal bounds, and stops once the heap is
// full and the next word cannot hold a page that would get in. Later words
// are no better than that one, and the root only gets younger, so the kept
// set is exactly what a scan of every dirty page would keep. The tie rule
// matters because a whole touch chunk shares one timestamp: among its
// words only the lowest few can hold a kept page. It returns the kept heap
// and the indexes of the words it scanned, both VM scratch.
func (v *VM) youngestDirty(as *AddressSpace, max int) (kept []aged, scanned []int) {
	words := v.wordScratch[:0]
	for wi, w := range as.dirtyMap {
		if w != 0 {
			words = append(words, dirtyWord{as.dirtyBound[wi], wi})
		}
	}
	for i := len(words)/2 - 1; i >= 0; i-- {
		wordSiftDown(words, i)
	}
	heap := v.agedScratch[:0]
	scanned = v.scanScratch[:0]
	frames, table := as.frames, v.phys.Frames()
	for len(words) > 0 {
		next := words[0]
		if len(heap) == max {
			oldest := heap[0]
			if next.bound < oldest.last || next.bound == oldest.last && next.wi<<6 > oldest.vp {
				break
			}
		}
		last := len(words) - 1
		words[0] = words[last]
		words = words[:last]
		wordSiftDown(words, 0)
		scanned = append(scanned, next.wi)
		for word := as.dirtyMap[next.wi]; word != 0; word &= word - 1 {
			vp := next.wi<<6 + bits.TrailingZeros64(word)
			entry := aged{vp, table[frames[vp]].LastUse}
			if len(heap) < max {
				heap = append(heap, entry)
				agedSiftUp(heap, len(heap)-1)
			} else if agedLess(heap[0], entry) {
				heap[0] = entry
				agedSiftDown(heap)
			}
		}
	}
	v.wordScratch = words[:0]
	v.agedScratch = heap[:0]
	v.scanScratch = scanned[:0]
	return heap, scanned
}

// tightenDirtyBounds lowers the bound of each scanned word to the youngest
// LastUse among its remaining dirty pages, or zero when none remain.
func (v *VM) tightenDirtyBounds(as *AddressSpace, scanned []int) {
	frames, table := as.frames, v.phys.Frames()
	for _, wi := range scanned {
		var bound sim.Time
		for word := as.dirtyMap[wi]; word != 0; word &= word - 1 {
			vp := wi<<6 + bits.TrailingZeros64(word)
			if t := table[frames[vp]].LastUse; t > bound {
				bound = t
			}
		}
		as.dirtyBound[wi] = bound
	}
}
