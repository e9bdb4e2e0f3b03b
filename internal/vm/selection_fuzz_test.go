package vm

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/acct"
	"repro/internal/disk"
	"repro/internal/sim"
)

// The references below are the selections the faster ones replaced, or
// their definitions: the write-back pass keeps the youngest dirty pages of
// a sort of every dirty page, oldest-first page-out sorted every resident
// page with a reflective sort, and the clock sweep visited every page of
// its revolution. (last use, vpage) is a total order, so the faster
// selections must pick exactly the same pages, and page-out must evict them
// in the same order. The first two read last use through the address
// space's accessor (lastUsed).

// refYoungestDirty sorts every dirty page by (last use descending, vpage
// ascending) and keeps the first max. It returns the kept pages in
// ascending order.
func refYoungestDirty(v *VM, as *AddressSpace, max int) []int {
	var dirty []aged
	for vp := range as.numPages {
		if bit(as.dirtyMap, vp) {
			dirty = append(dirty, aged{vp, as.lastUsed(vp)})
		}
	}
	sort.Slice(dirty, func(i, j int) bool {
		if dirty[i].last != dirty[j].last {
			return dirty[i].last > dirty[j].last
		}
		return dirty[i].vp < dirty[j].vp
	})
	pages := make([]int, 0, max)
	for _, d := range dirty[:min(max, len(dirty))] {
		pages = append(pages, d.vp)
	}
	sort.Ints(pages)
	return pages
}

// refOldestOf sorts every resident page of as by (last use, vpage) and
// returns the first max, in eviction order.
func refOldestOf(v *VM, as *AddressSpace, max int) []int {
	var cand []aged
	for vp := range as.numPages {
		if !as.hasFrame(vp) || bit(as.inFlight, vp) {
			continue
		}
		cand = append(cand, aged{vp, as.lastUsed(vp)})
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].last != cand[j].last {
			return cand[i].last < cand[j].last
		}
		return cand[i].vp < cand[j].vp
	})
	if len(cand) > max {
		cand = cand[:max]
	}
	pages := make([]int, 0, len(cand))
	for _, c := range cand {
		pages = append(pages, c.vp)
	}
	return pages
}

// refReadGroup is the sorted-list page-in path the bitmap read replaced, up
// to the group it handed readIn: the listed pages (in record order) that
// have no frame and a swap copy, sorted ascending.
func refReadGroup(as *AddressSpace, pages []int) []int {
	var group []int
	for _, vp := range pages {
		if as.hasFrame(vp) || !as.OnDisk(vp) {
			continue // resident, in flight or demand-zero
		}
		group = append(group, vp)
	}
	sort.Ints(group)
	return group
}

// refCoalesce is the cut the bitmap routine (cutRuns) replaced: it turns
// ascending, distinct vpages of as into the slot runs that hold them, a gap
// starting a run and a run cut at MaxIOPages.
func refCoalesce(v *VM, as *AddressSpace, pages []int) []disk.Run {
	var runs []disk.Run
	for i, vp := range pages {
		if n := len(runs); n > 0 && vp == pages[i-1]+1 && runs[n-1].N < v.cfg.MaxIOPages {
			runs[n-1].N++
			continue
		}
		runs = append(runs, disk.Run{Start: as.region.SlotFor(vp), N: 1})
	}
	return runs
}

// sentRequest is one disk request as the VM submitted it.
type sentRequest struct {
	run   disk.Run
	write bool
	prio  disk.Priority
}

// refRequests appends the requests that move pages, ascending vpages of
// as, as the page-list path submitted them: one per refCoalesce run.
func refRequests(dst []sentRequest, v *VM, as *AddressSpace, pages []int, write bool, prio disk.Priority) []sentRequest {
	for _, r := range refCoalesce(v, as, pages) {
		dst = append(dst, sentRequest{r, write, prio})
	}
	return dst
}

// refEvictWrites lists the write-backs an eviction of the pages in evicted
// (in eviction order) submits: one batch per process whose evicted pages
// were dirty (dirty holds each process's dirty bitmap from before the
// eviction), in the order the processes' first dirty pages were evicted,
// each batch sorted and coalesced.
func refEvictWrites(v *VM, evicted []pageOut, dirty map[int][]uint64) []sentRequest {
	var order []int
	batches := map[int][]int{}
	for _, e := range evicted {
		if !bit(dirty[e.pid], e.vp) {
			continue
		}
		if _, ok := batches[e.pid]; !ok {
			order = append(order, e.pid)
		}
		batches[e.pid] = append(batches[e.pid], e.vp)
	}
	var want []sentRequest
	for _, pid := range order {
		pages := batches[pid]
		sort.Ints(pages)
		want = refRequests(want, v, v.Process(pid), pages, true, disk.Demand)
	}
	return want
}

// pageOut is one eviction as OnPageOut reports it.
type pageOut struct{ pid, vp int }

// sweepState is one process's clock state as the default-policy reference
// sees it: copies of what a reclaim pass changes (reference bits, ages, the
// hand and the swap_out scan counter) and the pages the pass has taken.
type sweepState struct {
	as            *AddressSpace
	ref           []uint64
	age           []uint8
	hand, swapCnt int
	taken         map[int]bool
}

// refReclaimDefault computes a default-policy Reclaim(target) on copies of
// the clock state: the swap_out rotation and blind block expansion as the
// VM does them, around the per-page clock sweep (refClockSweep). It returns
// the pages in eviction order and every process's clock state afterwards.
func refReclaimDefault(v *VM, target int) ([]pageOut, []*sweepState) {
	var states []*sweepState
	for _, as := range v.procs {
		states = append(states, &sweepState{as: as, ref: slices.Clone(as.ref), age: slices.Clone(as.age),
			hand: as.hand, swapCnt: as.swapCnt, taken: map[int]bool{}})
	}
	var out []pageOut
	for cycles := 0; len(out) < target && cycles < 3; {
		var next *sweepState
		for _, s := range states {
			if s.as.resident > 0 && s.swapCnt > 0 && (next == nil || s.swapCnt > next.swapCnt) {
				next = s
			}
		}
		if next == nil {
			cycles++
			for _, s := range states {
				s.swapCnt = s.as.resident
			}
			continue
		}
		if scanned := refClockSweep(v.cfg, next, next.swapCnt, target-len(out), &out); scanned == 0 {
			next.swapCnt = 0
		} else {
			next.swapCnt = max(next.swapCnt-scanned, 0)
		}
	}
	if v.cfg.ClusterOut > 1 {
		selected := out
		for _, vi := range selected {
			i := slices.IndexFunc(states, func(s *sweepState) bool { return s.as.pid == vi.pid })
			s, added := states[i], 0
			for _, dir := range [2]int{1, -1} {
				for vp := vi.vp + dir; added < v.cfg.ClusterOut-1; vp += dir {
					if vp < 0 || vp >= s.as.numPages || !bit(s.as.settled, vp) || s.taken[vp] || bit(s.ref, vp) || s.age[vp] > 0 {
						break
					}
					s.taken[vp] = true
					out = append(out, pageOut{vi.pid, vp})
					added++
				}
			}
		}
	}
	return out, states
}

// refClockSweep is the per-page clock sweep the word-at-a-time one
// replaced: it steps through every position of at most one revolution from
// the hand, examining at most scanMax candidates (resident pages the pass
// has not taken), and leaves the hand just past the last position it
// stepped through. It returns the candidates it examined.
func refClockSweep(cfg Config, s *sweepState, scanMax, max int, out *[]pageOut) (scanned int) {
	as := s.as
	if as.resident-len(s.taken) <= 0 || max <= 0 || scanMax <= 0 {
		return 0
	}
	got := 0
	hand := s.hand
	for step := 0; step < as.numPages && got < max && scanned < scanMax; step++ {
		vp := hand
		hand++
		if hand >= as.numPages {
			hand = 0
		}
		if !bit(as.settled, vp) || s.taken[vp] {
			continue
		}
		scanned++
		if bit(s.ref, vp) {
			clearBit(s.ref, vp)
			s.age[vp] = uint8(min(int(s.age[vp])+cfg.AgeAdvance, cfg.AgeMax))
			continue
		}
		if s.age[vp] > 0 {
			s.age[vp]--
			continue
		}
		*out = append(*out, pageOut{as.pid, vp})
		s.taken[vp] = true
		got++
	}
	s.hand = hand
	return scanned
}

// dirtyPages lists as's resident dirty pages.
func dirtyPages(as *AddressSpace) []int {
	var pages []int
	for vp := range as.numPages {
		if as.hasFrame(vp) && !bit(as.inFlight, vp) && as.Dirty(vp) {
			pages = append(pages, vp)
		}
	}
	return pages
}

// touchState is the page state a touch writes, copied out of an address
// space and its VM, so the touch kernel's effect can be compared with the
// per-page reference's. lastUse holds every page's last use as the
// accessor decodes it from the per-word and per-page stamps, so comparing
// it with the reference's per-page stamps checks that encoding.
type touchState struct {
	ref, dirty, bgClean, touchedQ []uint64
	lastUse                       []sim.Time
	touched                       int
	wasted                        int64 // VM WastedBGWrite
	dirtied                       int   // accounting shadow's dirty count
}

func snapshotTouch(v *VM, as *AddressSpace) touchState {
	return touchState{
		ref:      slices.Clone(as.ref),
		dirty:    slices.Clone(as.dirtyMap),
		bgClean:  slices.Clone(as.bgClean),
		touchedQ: slices.Clone(as.touchedQ),
		lastUse:  lastUses(as),
		touched:  as.touched,
		wasted:   v.stats.WastedBGWrite,
		dirtied:  v.acct.Dirty,
	}
}

// lastUses decodes every page's last use through the accessor.
func lastUses(as *AddressSpace) []sim.Time {
	out := make([]sim.Time, as.numPages)
	for vp := range out {
		out[vp] = as.lastUsed(vp)
	}
	return out
}

// refTouchRun is the per-page touch loop the word-at-a-time kernel
// replaced, applied to a snapshot: it walks the run page by page through
// the page table and returns its length.
func refTouchRun(as *AddressSpace, st *touchState, vpage, max int, write bool, at sim.Time) int {
	vp := vpage
	for end := min(vpage+max, as.numPages); vp < end; vp++ {
		if !as.hasFrame(vp) || bit(as.inFlight, vp) {
			break
		}
		setBit(st.ref, vp)
		st.lastUse[vp] = at
		if write {
			if bit(st.bgClean, vp) {
				clearBit(st.bgClean, vp)
				st.wasted++
			}
			if !bit(st.dirty, vp) {
				setBit(st.dirty, vp)
				st.dirtied++
			}
		}
		if !bit(st.touchedQ, vp) {
			setBit(st.touchedQ, vp)
			st.touched++
		}
	}
	return vp - vpage
}

// diffTouch names the first field in which two touch states differ, or
// returns "" when they agree.
func diffTouch(got, want touchState) string {
	switch {
	case !slices.Equal(got.ref, want.ref):
		return "ref bits"
	case !slices.Equal(got.dirty, want.dirty):
		return "dirty bits"
	case !slices.Equal(got.bgClean, want.bgClean):
		return "bg-clean bits"
	case !slices.Equal(got.touchedQ, want.touchedQ):
		return "touched-this-quantum bits"
	case !slices.Equal(got.lastUse, want.lastUse):
		return "lastUse"
	case got.touched != want.touched:
		return "touched count"
	case got.wasted != want.wasted:
		return "WastedBGWrite"
	case got.dirtied != want.dirtied:
		return "accounting dirty delta"
	}
	return ""
}

// selectionScript feeds the fuzz input to the operation loop one byte at a
// time; an exhausted script reads as zeros.
type selectionScript struct {
	data []byte
	pos  int
}

func (s *selectionScript) next() int {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return int(b)
}

// Operation codes of the selection fuzz script. The script opens with a
// configuration byte and three process sizes. Every operation then reads
// its code and a process byte, and most read one more argument: the size
// of the replacement for an exit, the limit for a write-back, page-out or
// reclaim, and the time for a clock advance. A touch reads three: start,
// length and flags (write, direction, chunk code, time step). Chunk codes
// 0-14 touch 1-15 pages per chunk; code 15 touches wholeWordChunk pages,
// so its chunks cover whole bitmap words and take the touch kernel's
// one-stamp-per-word path. A page-set read reads three too: start, length
// and the seed of the pages it picks from that range.
const (
	selTouch = iota
	selWriteBack
	selReclaimFrom
	selReclaimDefault
	selReclaimSelective
	selAdvance
	selCrash
	selExit
	selReadSet
	selOps
)

// wholeWordChunk is the chunk length of chunk code 15: two words, so every
// such chunk covers at least one word whole, wherever it starts.
const wholeWordChunk = 128

// sweepScript builds a seed that writes every page of one process in
// whole-word chunks (code 15), ascending or descending, the whole sweep at
// one timestamp, then reads part of it in 8-page chunks, with write-backs,
// page-outs and reclaims in between.
func sweepScript(desc bool) []byte {
	script := []byte{3, 200, 100, 50}
	dir := byte(0)
	if desc {
		dir = 1
	}
	for round := byte(0); round < 4; round++ {
		p := round % 3
		script = append(script,
			selTouch, p, 0, 255, 1|dir<<1|15<<2,
			selWriteBack, p, 40,
			selAdvance, p, 10,
			selWriteBack, p, 200,
			selReclaimFrom, p, 30,
			selReclaimSelective, p, 50,
			selTouch, p, 64, 64, 0|dir<<1|7<<2|1<<6, // a read sweep, 1 µs per chunk
			selWriteBack, p, 255,
		)
	}
	return script
}

// clockScript builds a seed for the default policy's clock sweep. Two
// processes are written whole and a hole is paged out of the front of the
// larger one, so that its revolutions step over non-resident pages while
// its scan counter still exceeds the smaller one's. Default-policy reclaims
// then clear reference bits, age pages down and evict, stopping on their
// target, their scan limit or a whole revolution, and the rest of the
// larger process is read again between them.
func clockScript() []byte {
	script := []byte{0, 58, 0, 206,
		selTouch, 0, 0, 255, 1 | 15<<2,
		selTouch, 1, 0, 255, 1 | 15<<2,
		selReclaimFrom, 1, 30,
	}
	for i := byte(0); i < 12; i++ {
		script = append(script,
			selReclaimDefault, 0, 9+54*(i%2),
			selTouch, 1, 64, 255, 1<<2,
		)
	}
	return script
}

// clockStopScript builds a seed whose default-policy sweeps stop inside a
// word of mixed referenced and aged pages. Process 0 (268 pages) is written
// whole and aged by three reclaims of 64: two passes of three revolutions
// find nothing, and the third takes word 0 whole, stopping on its victim
// limit at the word's last page. Each round then re-reads a 26-page
// stretch that starts inside a word, so the sweeps meet words where some
// candidates are referenced and the rest are ageing or cold. Reclaim
// targets from 1 to 64 make the sweeps stop on their victim limit, and a
// scan counter that runs down by the pages each sweep examines makes them
// stop on their scan limit, at positions that drift through the words.
func clockStopScript() []byte {
	script := []byte{0, 236, 203, 106,
		selTouch, 0, 0, 255, 1 | 15<<2,
		selReclaimDefault, 0, 63,
		selReclaimDefault, 0, 63,
		selReclaimDefault, 0, 63,
	}
	for i := byte(0); i < 24; i++ {
		script = append(script,
			selReclaimDefault, 0, 1+i*i%64,
			selTouch, 0, 20+41*i%200, 12, 0|7<<2,
		)
	}
	return script
}

// fallbackScript builds a seed whose write-backs cannot be filled from the
// youngest bound. Process 0 (287 pages) is written in 128-page chunks
// 1 µs apart, so its last 31 pages hold the youngest bound alone, and a
// write-back of 200 must go on to the older words through the word heap.
// Reads at a later time then raise bounds over clean pages, and page-outs
// and page-set reads move pages between memory and swap; the second read
// of each pair meets the first one's pages in flight.
func fallbackScript() []byte {
	script := []byte{0, 255, 106, 206}
	for round := byte(0); round < 3; round++ {
		script = append(script,
			selTouch, 0, 0, 255, 1|15<<2|1<<6,
			selWriteBack, 0, 200,
			selAdvance, 0, 3,
			selTouch, 0, 40*round, 30, 0|15<<2,
			selWriteBack, 0, 150,
			selReclaimFrom, 0, 90,
			selReadSet, 0, 0, 255, round,
			selReadSet, 0, 0, 255, round+7,
			selAdvance, 0, 200,
		)
	}
	return script
}

// FuzzVictimSelection runs random operation sequences on a small VM with
// several processes and checks every touch against the per-page reference
// loop (run length, page-state bits, last-use stamps and counters), and
// every write-back and page-out against the reference selections:
// WriteBackDirty must clean exactly the reference's pages; ReclaimFrom and
// every default-policy Reclaim must evict the reference's pages in the
// reference's order, as seen through OnPageOut, and a default-policy
// Reclaim must leave every process's hand, scan counter, reference bits and
// ages as the reference does. The disk must receive, from each write-back,
// eviction and page-set read, exactly the requests of the page-list path:
// each batch's pages sorted and coalesced (refCoalesce). Touch runs go in
// either direction, read or write, often at repeated timestamps so lastUse
// ties are common; reclaim runs under both policies with blind block
// page-out, and crashes and process exits mix in. VM.Validate runs after
// every step.
func FuzzVictimSelection(f *testing.F) {
	f.Add(sweepScript(false))
	f.Add(sweepScript(true))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3; i++ {
		random := make([]byte, 400)
		rng.Read(random)
		f.Add(random)
	}
	f.Add(clockScript())
	f.Add(clockStopScript())
	f.Add(fallbackScript())
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &selectionScript{data: data}
		// ClusterOut 1..4: 1 disables block page-out, the rest expand.
		// MaxIOPages is the default 1,024, above any process here, or 2, 5
		// or 64, so that requests are cut at the cap too.
		cfg := s.next()
		r := newRig(t, 320, 4, 12, Config{ReadAhead: 8, ClusterOut: 1 + cfg%4, MaxIOPages: [...]int{1024, 2, 5, 64}[cfg/4%4]})
		r.vm.SetAcct(&acct.Counts{})
		type proc struct{ pid, pages int }
		var procs []proc
		nextPID := 1
		spawn := func(size int) {
			pages := 32 + size%400
			if _, err := r.vm.NewProcess(nextPID, pages); err != nil {
				t.Fatal(err)
			}
			procs = append(procs, proc{nextPID, pages})
			nextPID++
		}
		for i := 0; i < 3; i++ {
			spawn(s.next() + 97*i)
		}
		var evicted []pageOut
		r.vm.OnPageOut = eachPage(func(pid, vp int) { evicted = append(evicted, pageOut{pid, vp}) })
		var sent []sentRequest
		r.vm.submitted = func(req *disk.Request) { sent = append(sent, sentRequest{req.Run, req.Write, req.Prio}) }
		// dirtyBefore copies every process's dirty bitmap, for the
		// write-backs an eviction must submit.
		dirtyBefore := func() map[int][]uint64 {
			dirty := map[int][]uint64{}
			for _, q := range procs {
				dirty[q.pid] = slices.Clone(r.vm.Process(q.pid).dirtyMap)
			}
			return dirty
		}
		checkSent := func(step int, what string, want []sentRequest) {
			t.Helper()
			if !slices.Equal(sent, want) {
				t.Fatalf("step %d: %s submitted %v, the page-list path submits %v", step, what, sent, want)
			}
		}

		// touch references pages [lo, hi) of p in chunks, ascending or
		// descending, faulting in whatever is not resident. Every chunk is
		// stamped at the current base time plus step times its index, so a
		// zero step gives the whole sweep one timestamp. Chunks alternate
		// between TouchRun and ResidentRun plus TouchResidentAt, and every
		// touch must leave exactly what the reference loop leaves.
		touch := func(p proc, lo, hi, chunk int, write, desc bool, step sim.Duration) {
			as := r.vm.Process(p.pid)
			at := r.eng.Now()
			for i := 0; i*chunk < hi-lo; i++ {
				start, end := lo+i*chunk, min(lo+(i+1)*chunk, hi)
				if desc {
					start, end = max(hi-(i+1)*chunk, lo), hi-i*chunk
				}
				for vp := start; vp < end; {
					want := snapshotTouch(r.vm, as)
					wantN := refTouchRun(as, &want, vp, end-vp, write, at)
					var n int
					if i%2 == 0 {
						n = r.vm.TouchRun(as, vp, end-vp, write, at)
					} else if n = r.vm.ResidentRun(p.pid, vp, end-vp); n > 0 {
						r.vm.TouchResidentAt(p.pid, vp, n, write, at)
					}
					if n != wantN {
						t.Fatalf("touch of pid %d at vpage %d ran %d pages, reference runs %d", p.pid, vp, n, wantN)
					}
					if field := diffTouch(snapshotTouch(r.vm, as), want); field != "" {
						t.Fatalf("touch of pid %d [%d,%d) left %s unlike the reference", p.pid, vp, vp+n, field)
					}
					if n > 0 {
						vp += n
						continue
					}
					// A major fault reads its page first. The read's other
					// pages, those newly in flight, must still be in
					// flight when the faulting process resumes: landing
					// runs its waiters before any page above its own.
					done := false
					before := slices.Clone(as.inFlight)
					var read []int
					r.vm.Fault(as, vp, write, func() {
						done = true
						for _, q := range read {
							if !bit(as.inFlight, q) {
								t.Fatalf("fault on pid %d vpage %d resumed after vpage %d of its read landed", p.pid, vp, q)
							}
						}
					})
					for q := vp + 1; q < as.numPages; q++ {
						if bit(as.inFlight, q) && !bit(before, q) {
							read = append(read, q)
						}
					}
					r.eng.Run()
					if !done {
						t.Fatalf("fault on pid %d vpage %d never resumed", p.pid, vp)
					}
					at = max(at, r.eng.Now())
				}
				at += sim.Time(step)
			}
		}

		for step := 0; s.pos < len(s.data); step++ {
			op := s.next() % selOps
			p := procs[s.next()%len(procs)]
			as := r.vm.Process(p.pid)
			sent, evicted = sent[:0], evicted[:0]
			switch op {
			case selTouch:
				lo := s.next() * p.pages / 256
				hi := min(p.pages, lo+1+s.next()*p.pages/128)
				flags := s.next()
				write, desc := flags&1 != 0, flags&2 != 0
				chunk := 1 + (flags>>2)&15
				if chunk == 16 {
					chunk = wholeWordChunk
				}
				stepUS := sim.Duration(flags>>6) * sim.Microsecond
				touch(p, lo, hi, chunk, write, desc, stepUS)
			case selWriteBack:
				limit := s.next()
				var want []int
				if limit > 0 { // the reference heap needs room for one page
					want = refYoungestDirty(r.vm, as, limit)
				}
				before := dirtyPages(as)
				n := r.vm.WriteBackDirty(p.pid, limit, disk.Background)
				after := dirtyPages(as)
				var cleaned []int
				for _, vp := range before {
					if _, still := slices.BinarySearch(after, vp); !still {
						cleaned = append(cleaned, vp)
					}
				}
				if n != len(want) || !slices.Equal(cleaned, want) {
					t.Fatalf("step %d: WriteBackDirty(pid %d, %d) returned %d and cleaned %v, reference cleans %v",
						step, p.pid, limit, n, cleaned, want)
				}
				checkSent(step, "WriteBackDirty", refRequests(nil, r.vm, as, cleaned, true, disk.Background))
			case selReclaimFrom:
				limit := s.next()
				want := refOldestOf(r.vm, as, limit)
				dirty := dirtyBefore()
				n := r.vm.ReclaimFrom(p.pid, limit)
				got := make([]int, 0, len(evicted))
				for _, e := range evicted {
					if e.pid != p.pid {
						t.Fatalf("step %d: ReclaimFrom(pid %d) evicted pid %d's page", step, p.pid, e.pid)
					}
					got = append(got, e.vp)
				}
				if n != len(want) || !slices.Equal(got, want) {
					t.Fatalf("step %d: ReclaimFrom(pid %d, %d) returned %d and evicted %v, reference evicts %v",
						step, p.pid, limit, n, got, want)
				}
				checkSent(step, "ReclaimFrom", refEvictWrites(r.vm, evicted, dirty))
			case selReclaimDefault:
				r.vm.SetVictimPolicy(PolicyDefault)
				r.vm.SetOutgoing(0)
				target := 1 + s.next()%64
				want, states := refReclaimDefault(r.vm, target)
				dirty := dirtyBefore()
				if n := r.vm.Reclaim(target); n != len(want) || !slices.Equal(evicted, want) {
					t.Fatalf("step %d: Reclaim(%d) returned %d and evicted %v, reference evicts %v",
						step, target, n, evicted, want)
				}
				checkSent(step, "default-policy Reclaim", refEvictWrites(r.vm, evicted, dirty))
				for _, st := range states {
					as := st.as
					if as.hand != st.hand || as.swapCnt != st.swapCnt || !slices.Equal(as.age, st.age) || !slices.Equal(as.ref, st.ref) {
						t.Fatalf("step %d: after Reclaim(%d) pid %d has hand %d, scan counter %d, ages %v and reference bits %x; reference: %d, %d, %v, %x",
							step, target, as.pid, as.hand, as.swapCnt, as.age, as.ref, st.hand, st.swapCnt, st.age, st.ref)
					}
				}
			case selReclaimSelective:
				r.vm.SetVictimPolicy(PolicySelective)
				r.vm.SetOutgoing(p.pid)
				dirty := dirtyBefore()
				r.vm.Reclaim(1 + s.next()%64)
				checkSent(step, "selective Reclaim", refEvictWrites(r.vm, evicted, dirty))
			case selAdvance:
				r.eng.RunFor(sim.Duration(s.next()) * 100 * sim.Microsecond)
			case selCrash:
				r.vm.Crash()
				r.dsk.Reset()
			case selReadSet:
				// Read a random page set of [lo, hi) through the bitmap
				// path. The pages it puts in flight must be a prefix of
				// the sorted-list path's group (the whole group unless
				// memory ran out), and the disk must receive that
				// prefix's runs, after the write-backs of whatever the
				// read's reclaim evicted. The reads stay in flight until
				// the engine next runs.
				lo := s.next() * p.pages / 256
				hi := min(p.pages, lo+1+s.next()*p.pages/128)
				pick := rand.New(rand.NewSource(int64(s.next())))
				set := make([]uint64, len(as.settled))
				var pages []int
				for _, vp := range pick.Perm(hi - lo) {
					if pick.Intn(3) > 0 {
						pages = append(pages, lo+vp)
						setBit(set, lo+vp)
					}
				}
				want := refReadGroup(as, pages)
				before := slices.Clone(as.inFlight)
				dirty := dirtyBefore()
				r.vm.ReadPageSet(p.pid, set, disk.Demand, 0, nil)
				var got []int
				for vp := range as.numPages {
					if bit(as.inFlight, vp) && !bit(before, vp) {
						got = append(got, vp)
					}
				}
				if len(got) < len(want) && r.vm.phys.NumFree() != 0 {
					t.Fatalf("step %d: page-set read put %d of %d pages in flight with %d frames free",
						step, len(got), len(want), r.vm.phys.NumFree())
				}
				if !slices.Equal(got, want[:len(got)]) {
					t.Fatalf("step %d: page-set read of pid %d put %v in flight; the sorted-list path reads %v",
						step, p.pid, got, want)
				}
				checkSent(step, "page-set read", refRequests(refEvictWrites(r.vm, evicted, dirty), r.vm, as, got, false, disk.Demand))
				if slices.ContainsFunc(set, func(w uint64) bool { return w != 0 }) {
					t.Fatalf("step %d: page-set read left bits in its set", step)
				}
			case selExit:
				r.vm.DestroyProcess(p.pid)
				for i, q := range procs {
					if q.pid == p.pid {
						procs = slices.Delete(procs, i, i+1)
						break
					}
				}
				spawn(s.next())
			}
			if err := r.vm.Validate(); err != nil {
				t.Fatalf("step %d (op %d): %v", step, op, err)
			}
		}
		r.eng.Run()
		if err := r.vm.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
