package vm

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/disk"
	"repro/internal/mem"
	"repro/internal/sim"
)

// The references below are the selections the bounded ones replaced: the
// write-back pass scanned every dirty page into its bounded heap, and
// oldest-first page-out sorted every resident page with a reflective sort.
// (LastUse, vpage) is a total order, so the faster selections must pick
// exactly the same pages, and page-out must evict them in the same order.

// refYoungestDirty is the full dirty-map scan: every dirty page goes through
// the bounded heap. It returns the kept pages in ascending order.
func refYoungestDirty(v *VM, as *AddressSpace, max int) []int {
	var heap []aged
	frames := as.frames
	table := v.phys.Frames()
	for wi, word := range as.dirtyMap {
		for word != 0 {
			vp := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
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
	pages := make([]int, 0, len(heap))
	for _, d := range heap {
		pages = append(pages, d.vp)
	}
	sort.Ints(pages)
	return pages
}

// refOldestOf sorts every resident page of as by (LastUse, vpage) and
// returns the first max, in eviction order.
func refOldestOf(v *VM, as *AddressSpace, max int) []int {
	var cand []aged
	table := v.phys.Frames()
	for vp, fid := range as.frames {
		if fid == mem.NoFrame || as.inFlight[vp] {
			continue
		}
		cand = append(cand, aged{vp, table[fid].LastUse})
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

// dirtyPages lists as's resident dirty pages from the frame table.
func dirtyPages(v *VM, as *AddressSpace) []int {
	var pages []int
	for vp, fid := range as.frames {
		if fid != mem.NoFrame && !as.inFlight[vp] && v.phys.Frame(fid).Dirty {
			pages = append(pages, vp)
		}
	}
	return pages
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
// length and flags (write, direction, chunk size, time step).
const (
	selTouch = iota
	selWriteBack
	selReclaimFrom
	selReclaimDefault
	selReclaimSelective
	selAdvance
	selCrash
	selExit
	selOps
)

// sweepScript builds a seed that writes every page of one process in
// 16-page chunks, ascending or descending, the whole sweep at one
// timestamp, with write-backs, page-outs and reclaims in between.
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

// FuzzVictimSelection runs random operation sequences on a small VM with
// several processes and checks every write-back and targeted page-out
// against the reference selections: WriteBackDirty must clean exactly the
// reference's pages, and ReclaimFrom must evict the reference's pages in the
// reference's order, as seen through OnPageOut. Touch runs go in either
// direction, read or write, often at repeated timestamps so LastUse ties
// are common; reclaim runs under both policies with blind block page-out,
// and crashes and process exits mix in. VM.Validate runs after every step.
func FuzzVictimSelection(f *testing.F) {
	f.Add(sweepScript(false))
	f.Add(sweepScript(true))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3; i++ {
		random := make([]byte, 400)
		rng.Read(random)
		f.Add(random)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &selectionScript{data: data}
		// ClusterOut 1..4: 1 disables block page-out, the rest expand.
		r := newRig(t, 320, 4, 12, Config{ReadAhead: 8, ClusterOut: 1 + s.next()%4})
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
		type pageOut struct{ pid, vp int }
		var evicted []pageOut
		r.vm.OnPageOut = func(pid, vp int) { evicted = append(evicted, pageOut{pid, vp}) }

		// touch references pages [lo, hi) of p in chunks, ascending or
		// descending, faulting in whatever is not resident. Every chunk is
		// stamped at the current base time plus step times its index, so a
		// zero step gives the whole sweep one timestamp. Chunks alternate
		// between the two touch paths that stamp LastUse.
		touch := func(p proc, lo, hi, chunk int, write, desc bool, step sim.Duration) {
			at := r.eng.Now()
			for i := 0; i*chunk < hi-lo; i++ {
				start, end := lo+i*chunk, min(lo+(i+1)*chunk, hi)
				if desc {
					start, end = max(hi-(i+1)*chunk, lo), hi-i*chunk
				}
				for vp := start; vp < end; {
					var n int
					if i%2 == 0 {
						n = r.vm.TouchRun(p.pid, vp, end-vp, write, at)
					} else if n = r.vm.ResidentRun(p.pid, vp, end-vp); n > 0 {
						r.vm.TouchResidentAt(p.pid, vp, n, write, at)
					}
					if n > 0 {
						vp += n
						continue
					}
					done := false
					r.vm.Fault(p.pid, vp, write, func() { done = true })
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
			switch op {
			case selTouch:
				lo := s.next() * p.pages / 256
				hi := min(p.pages, lo+1+s.next()*p.pages/128)
				flags := s.next()
				write, desc := flags&1 != 0, flags&2 != 0
				chunk := 1 + (flags>>2)&15
				stepUS := sim.Duration(flags>>6) * sim.Microsecond
				touch(p, lo, hi, chunk, write, desc, stepUS)
			case selWriteBack:
				limit := s.next()
				var want []int
				if limit > 0 { // the reference heap needs room for one page
					want = refYoungestDirty(r.vm, as, limit)
				}
				before := dirtyPages(r.vm, as)
				n := r.vm.WriteBackDirty(p.pid, limit, disk.Background)
				after := dirtyPages(r.vm, as)
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
			case selReclaimFrom:
				limit := s.next()
				want := refOldestOf(r.vm, as, limit)
				evicted = evicted[:0]
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
			case selReclaimDefault:
				r.vm.SetVictimPolicy(PolicyDefault)
				r.vm.SetOutgoing(0)
				r.vm.Reclaim(1 + s.next()%64)
			case selReclaimSelective:
				r.vm.SetVictimPolicy(PolicySelective)
				r.vm.SetOutgoing(p.pid)
				r.vm.Reclaim(1 + s.next()%64)
			case selAdvance:
				r.eng.RunFor(sim.Duration(s.next()) * 100 * sim.Microsecond)
			case selCrash:
				r.vm.Crash()
				r.dsk.Reset()
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
