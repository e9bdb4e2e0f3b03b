package vm

import (
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Layer benchmarks for the touch kernel, the fault path, and victim and
// write-back selection. Each keeps its input steady across iterations and
// stops the timer while it restores that input, so ns/op is the operation
// and its bookkeeping alone.

// sweepChunk is the process engine's default touch chunk (proc.ChunkPages):
// every page of a chunk is stamped with one lastUse.
const sweepChunk = 8192

// BenchmarkTouchRun is the touch kernel on a Figure-7-sized image (LU
// class B, 190 MB) faulted in in shuffled page order. Each op touches one
// 64-page run, sweeping the image; ns/page is the cost per page touched.
func BenchmarkTouchRun(b *testing.B) {
	pages := mem.PagesFromMB(190)
	const run = 64
	for _, write := range []bool{false, true} {
		name := "read"
		if write {
			name = "write"
		}
		b.Run(name, func(b *testing.B) {
			r := newRig(b, pages+64, 0, 0, Config{})
			as, _ := r.vm.NewProcess(1, pages)
			for _, vp := range rand.New(rand.NewSource(1)).Perm(pages) {
				r.vm.Fault(as, vp, false, func() {})
				r.eng.Run()
			}
			at := r.eng.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				vp := i * run % pages
				if n := r.vm.TouchRun(as, vp, run, write, at); n != min(run, pages-vp) {
					b.Fatalf("touched %d pages at vpage %d", n, vp)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*run), "ns/page")
		})
	}
}

// BenchmarkFault prices one fault of each kind, from the trap to the resume:
// a demand-zero fill, a minor fault on a page whose read is already in
// flight, and a major fault that reads the page with a 16-page read-ahead
// group. Each op runs the engine until the fault resumes; allocs/op is the
// fault path's garbage (the read paths' disk requests included).
func BenchmarkFault(b *testing.B) {
	const pages = 1 << 12
	resume := func() {}
	b.Run("zero-fill", func(b *testing.B) {
		r := newRig(b, pages+64, 0, 0, Config{})
		as, _ := r.vm.NewProcess(1, pages)
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			vp := i % pages
			if vp == 0 && i > 0 {
				b.StopTimer()
				r.vm.DestroyProcess(1)
				as, _ = r.vm.NewProcess(1, pages)
				b.StartTimer()
			}
			r.vm.Fault(as, vp, false, resume)
			r.eng.Run()
		}
	})
	// pagedOut leaves every page of a written image on swap, not resident.
	pagedOut := func(b *testing.B, r *rig, as *AddressSpace) {
		r.vm.ReclaimFrom(1, pages)
		r.eng.Run()
		if as.Resident() != 0 || !as.OnDisk(pages-1) {
			b.Fatal("image not paged out")
		}
	}
	b.Run("minor-in-flight", func(b *testing.B) {
		const batch = 64
		r := newRig(b, pages+64, 0, 0, Config{})
		as, _ := r.vm.NewProcess(1, pages)
		r.touchAll(b, 1, pages, true)
		group := make([]int, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			b.StopTimer()
			pagedOut(b, r, as)
			for j := range group {
				group[j] = j
			}
			r.vm.ReadPagesIn(1, group, disk.Demand, nil)
			b.StartTimer()
			for vp := range min(batch, b.N-i) {
				r.vm.Fault(as, vp, false, resume)
			}
			r.eng.Run()
		}
	})
	b.Run("major", func(b *testing.B) {
		r := newRig(b, pages+64, 0, 0, Config{})
		as, _ := r.vm.NewProcess(1, pages)
		r.touchAll(b, 1, pages, true)
		ra := r.vm.Config().ReadAhead
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			vp := i * ra % pages
			if vp == 0 {
				b.StopTimer()
				pagedOut(b, r, as)
				b.StartTimer()
			}
			r.vm.Fault(as, vp, false, resume)
			r.eng.Run()
		}
	})
}

// TestFaultAllocFree pins the allocation-free fault and I/O paths: once
// the pools are warm, a demand-zero fill, a folded stretch of them, a minor
// fault on a resident page, a major fault through its read completion
// (with the clean page-out that sets up the next one), a page-set read of
// several runs through its landing (with a fault waiting in the middle of
// one), and a write-back pass through its write completion allocate
// nothing.
func TestFaultAllocFree(t *testing.T) {
	r := newRig(t, 1024, 0, 0, Config{})
	as, _ := r.vm.NewProcess(1, 512)
	resume := func() {}
	next := 0
	zeroFill := func() {
		r.vm.Fault(as, next, false, resume)
		r.eng.Run()
		next++
	}
	minor := func() {
		r.vm.Fault(as, 0, false, resume)
		r.eng.Run()
	}
	zeroFill() // warm the pool and the engine's event records
	if n := testing.AllocsPerRun(100, zeroFill); n != 0 {
		t.Errorf("zero-fill fault allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, minor); n != 0 {
		t.Errorf("resident minor fault allocates %v times", n)
	}
	if as.Resident() != next {
		t.Fatalf("resident = %d after %d zero fills", as.Resident(), next)
	}

	// Process 2's written image goes to swap. Each major fault reads the
	// next read-ahead group back, and paging that group out again is free:
	// its pages are clean copies of their slots.
	const pages = 256
	swapped, _ := r.vm.NewProcess(2, pages)
	r.touchAll(t, 2, pages, true)
	r.vm.ReclaimFrom(2, pages)
	r.eng.Run()
	ra := r.vm.Config().ReadAhead
	vp, evicted, in := 0, 0, r.vm.Stats().PagesIn
	major := func() {
		r.vm.Fault(swapped, vp, false, resume)
		r.eng.Run()
		evicted += r.vm.ReclaimFrom(2, pages)
		vp = (vp + ra) % pages
	}
	runs := testing.AllocsPerRun(100, major) // plus one warm-up run
	if runs != 0 {
		t.Errorf("major fault allocates %v times", runs)
	}
	if got := r.vm.Stats().PagesIn - in; got != int64(101*ra) || evicted != 101*ra || swapped.Resident() != 0 {
		t.Fatalf("101 major faults read %d pages and evicted %d, want %d each", got, evicted, 101*ra)
	}

	// A folded stretch fills 64 pages of process 3 as demand-zero pages
	// and reads them; paging them out again drops them, clean and
	// swap-less, so the next stretch fills them afresh.
	const stretch = 64
	cold, _ := r.vm.NewProcess(3, stretch)
	folded := 0
	fold := func() {
		n, _, _ := r.vm.FoldZeroFill(cold, 0, stretch, false, r.eng.Now(), sim.Microsecond, 0, false)
		folded += n
		r.vm.ReclaimFrom(3, stretch)
	}
	if n := testing.AllocsPerRun(100, fold); n != 0 {
		t.Errorf("folded zero-fill stretch allocates %v times", n)
	}
	if folded != 101*stretch || cold.Resident() != 0 {
		t.Fatalf("101 stretches folded %d pages, want %d", folded, 101*stretch)
	}

	// A page-set read of every third page of process 2's first 192 is 64
	// one-page runs; a fault on an in-flight page waits for its landing.
	set := make([]uint64, (pages+63)/64)
	in = r.vm.Stats().PagesIn
	setRead := func() {
		for vp := 0; vp < 192; vp += 3 {
			setBit(set, vp)
		}
		r.vm.ReadPageSet(2, set, disk.Demand, 0, nil)
		r.vm.Fault(swapped, 96, false, resume)
		r.eng.Run()
		r.vm.ReclaimFrom(2, pages)
	}
	if n := testing.AllocsPerRun(100, setRead); n != 0 {
		t.Errorf("multi-run page-set read allocates %v times", n)
	}
	if got := r.vm.Stats().PagesIn - in; got != 101*64 || swapped.Resident() != 0 {
		t.Fatalf("101 page-set reads landed %d pages, want %d", got, 101*64)
	}

	written := r.vm.Stats().PagesOut
	writeBack := func() {
		r.vm.TouchRun(as, 0, 64, true, r.eng.Now())
		r.vm.WriteBackDirty(1, 64, disk.Background)
		r.eng.Run()
	}
	if n := testing.AllocsPerRun(100, writeBack); n != 0 {
		t.Errorf("write-back pass allocates %v times", n)
	}
	if got := r.vm.Stats().BGPagesOut; got != 101*64 || r.vm.PendingWriteBacks() != 0 || r.vm.Stats().PagesOut != written {
		t.Fatalf("101 write-back passes wrote %d pages (%d pending), want %d", got, r.vm.PendingWriteBacks(), 101*64)
	}
}

// BenchmarkWriteBackDirty is one background-writer pass over an address
// space of 64k dirty pages, written in 8,192-page chunks 1 ms apart. Between
// passes the writes drain and the sweep re-dirties its next chunk, so every
// pass sees about 64k dirty pages and picks its 256 from the youngest chunk.
func BenchmarkWriteBackDirty(b *testing.B) {
	const pages, batch = 1 << 16, 256
	r := newRig(b, pages+64, 0, 0, Config{})
	r.vm.NewProcess(1, pages)
	r.touchAll(b, 1, pages, false)
	chunk := 0
	redirty := func() {
		r.eng.RunFor(sim.Millisecond)
		r.vm.TouchRun(r.vm.Process(1), chunk*sweepChunk, sweepChunk, true, r.eng.Now())
		chunk = (chunk + 1) % (pages / sweepChunk)
	}
	for range pages / sweepChunk {
		redirty()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if n := r.vm.WriteBackDirty(1, batch, disk.Background); n != batch {
			b.Fatalf("wrote %d pages, want %d", n, batch)
		}
		b.StopTimer()
		r.eng.Run()
		redirty()
		b.StartTimer()
	}
}

// BenchmarkReclaimFrom is one aggressive page-out of the 256 oldest of 16k
// resident pages. Between calls the evicted pages fault back in, becoming
// the youngest, so each call takes the next-oldest 256.
func BenchmarkReclaimFrom(b *testing.B) {
	const pages, batch = 1 << 14, 256
	r := newRig(b, pages+64, 0, 0, Config{})
	r.vm.NewProcess(1, pages)
	r.touchAll(b, 1, pages, false)
	as := r.vm.Process(1)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if n := r.vm.ReclaimFrom(1, batch); n != batch {
			b.Fatalf("evicted %d pages, want %d", n, batch)
		}
		b.StopTimer()
		for vp := 0; vp < pages; vp++ {
			if !as.IsResident(vp) {
				r.vm.Fault(r.vm.Process(1), vp, false, func() {})
				r.eng.Run()
			}
		}
		b.StartTimer()
	}
}

// BenchmarkClockSweep is one default-policy sweep of a 16k-page process,
// scanning at most 4,096 pages for 256 victims. Between sweeps the next
// quarter of the address space is referenced again, so the hand meets a mix
// of referenced, ageing and evictable pages.
func BenchmarkClockSweep(b *testing.B) {
	const pages, window = 1 << 14, 1 << 12
	r := newRig(b, pages+64, 0, 0, Config{})
	r.vm.NewProcess(1, pages)
	r.touchAll(b, 1, pages, false)
	as := r.vm.Process(1)
	var out []victim
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		r.vm.pass.reset()
		out = out[:0]
		r.vm.clockSweep(as, window, 256, &out, &r.vm.pass)
		b.StopTimer()
		r.vm.TouchRun(r.vm.Process(1), next, window, false, r.eng.Now())
		next = (next + window) % pages
		b.StartTimer()
	}
}
