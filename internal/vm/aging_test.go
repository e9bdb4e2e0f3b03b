package vm

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/swap"
)

// agingRig uses explicit aging parameters so the tests document the exact
// grace-period arithmetic.
func agingRig(t *testing.T, frames int) *rig {
	t.Helper()
	return newRig(t, frames, 0, 0, Config{AgeStart: 2, AgeAdvance: 4, AgeMax: 8})
}

// passesToEvict runs reclaim passes (touching the page beforehand on the
// first `touches` passes) and reports how many passes the page survived.
func passesToEvict(t *testing.T, touches int) int {
	t.Helper()
	r := agingRig(t, 64)
	r.vm.NewProcess(1, 1)
	r.touchAll(t, 1, 1, false)
	for pass := 1; pass <= 64; pass++ {
		if pass <= touches {
			r.vm.TouchResident(1, 0, 1, false)
		}
		if r.vm.Reclaim(1) == 1 {
			return pass
		}
	}
	t.Fatal("page never evicted")
	return 0
}

func TestFreshPageGetsGracePeriod(t *testing.T) {
	// A freshly touched page must survive the first reclaim pass (the
	// grace period aging buys) but be evicted in bounded time once cold.
	p := passesToEvict(t, 0)
	if p < 2 {
		t.Fatalf("fresh page evicted on pass %d; no grace period", p)
	}
	if p > 10 {
		t.Fatalf("cold page survived %d passes; decay too slow", p)
	}
}

func TestReferenceRejuvenatesAge(t *testing.T) {
	// Re-touching the page during early passes must extend its life
	// relative to leaving it cold.
	cold := passesToEvict(t, 0)
	touched := passesToEvict(t, 2)
	if touched <= cold {
		t.Fatalf("re-touched page (%d passes) did not outlive cold page (%d passes)",
			touched, cold)
	}
}

func TestAgeCappedAtMax(t *testing.T) {
	r := agingRig(t, 64)
	r.vm.NewProcess(1, 1)
	r.touchAll(t, 1, 1, false)
	// Touch + sweep repeatedly: age saturates at AgeMax=8.
	for i := 0; i < 10; i++ {
		r.vm.TouchResident(1, 0, 1, false)
		r.vm.Reclaim(1)
	}
	// Now leave it cold: must evict within AgeMax+1 passes.
	evicted := false
	for pass := 0; pass <= 9; pass++ {
		if r.vm.Reclaim(1) == 1 {
			evicted = true
			break
		}
	}
	if !evicted {
		t.Fatal("age exceeded its cap")
	}
}

func TestSwapCntRotationDrainsStoppedProcess(t *testing.T) {
	// A (stopped, decayed) and B (running, constantly re-touched): reclaim
	// pressure must drain A, not churn B — the property that lets a gang
	// transition complete under the original policy.
	r := newRig(t, 300, 0, 0, Config{})
	r.vm.NewProcess(1, 120) // "A": will go cold
	r.vm.NewProcess(2, 120) // "B": stays hot
	r.touchAll(t, 1, 120, false)
	r.touchAll(t, 2, 120, false)

	evictions := map[int]int{}
	r.vm.OnPageOut = eachPage(func(pid, vp int) { evictions[pid]++ })
	for pass := 0; pass < 60; pass++ {
		r.vm.TouchResident(2, 0, 120, false) // B re-references everything
		r.vm.Reclaim(4)
	}
	if evictions[1] == 0 {
		t.Fatal("stopped process never drained")
	}
	if evictions[2] > evictions[1]/4 {
		t.Fatalf("hot process churned: A=%d B=%d", evictions[1], evictions[2])
	}
}

func TestSwapCntCycleResetsAfterDestroy(t *testing.T) {
	r := newRig(t, 300, 0, 0, Config{})
	r.vm.NewProcess(1, 50)
	r.touchAll(t, 1, 50, true)
	reclaimUntil(r.vm, 10) // populates swapCnt state
	r.vm.DestroyProcess(1)
	// A reclaim with no processes must be a harmless no-op.
	if got := r.vm.Reclaim(5); got != 0 {
		t.Fatalf("reclaimed %d from empty system", got)
	}
	r.vm.NewProcess(2, 50)
	r.touchAll(t, 2, 50, true)
	if got := reclaimUntil(r.vm, 5); got != 5 {
		t.Fatalf("reclaim broken after process churn: %d", got)
	}
	if err := r.vm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectiveIgnoresAging(t *testing.T) {
	// Kernel-directed eviction (selective/aggressive) takes pages by age
	// order regardless of the aging grace period — the scheduler knows the
	// outgoing process will not run for a long time.
	r := newRig(t, 256, 0, 0, Config{})
	r.vm.NewProcess(1, 100)
	r.touchAll(t, 1, 100, true) // fresh, fully aged pages
	if got := r.vm.ReclaimFrom(1, 100); got != 100 {
		t.Fatalf("aggressive page-out evicted %d, want all 100", got)
	}
}

func TestZeroFillRetryUnderTotalPressure(t *testing.T) {
	// Fill memory with in-flight reads so not a single frame is free, then
	// zero-fill-fault: the fault must retry and eventually succeed once
	// the reads land.
	r := newRig(t, 64, 2, 4, Config{})
	r.vm.NewProcess(1, 60)
	r.touchAll(t, 1, 60, true)
	r.vm.ReclaimFrom(1, 60)
	r.eng.Run()
	// Read everything back: 60 in-flight pages on 64 frames.
	r.vm.ReadPagesIn(1, seqPages(60), disk.Demand, nil)
	r.vm.NewProcess(2, 4)
	done := false
	r.vm.Fault(r.vm.Process(2), 0, true, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("zero-fill fault never completed under pressure")
	}
	if err := r.vm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func seqPages(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestReadInRetryDropsPagesReadElsewhere(t *testing.T) {
	r := newRig(t, 256, 4, 8, Config{})
	r.vm.NewProcess(1, 40)
	r.touchAll(t, 1, 40, true)
	r.vm.ReclaimFrom(1, 40)
	r.eng.Run()
	// Two overlapping prefetches: the second must not double-read.
	r.vm.ReadPagesIn(1, seqPages(40), disk.Demand, nil)
	calls := 0
	r.vm.ReadPagesIn(1, seqPages(40), disk.Demand, func() { calls++ })
	r.eng.Run()
	if calls != 1 {
		t.Fatalf("onDone calls = %d", calls)
	}
	if got := r.vm.Stats().PagesIn; got != 40 {
		t.Fatalf("pages read = %d, want 40 (no duplicates)", got)
	}
}

// TestReadInRetryReadsWhatIsLeft makes a fault's read-ahead (vpages 5 to
// 15) and then a page-set read of all 16 pages of the same process wait
// for memory, pinned by another process's read-back. Frames come back four
// at a time, as that read-back lands run by run: the fault's retry reads
// its first four pages, and the set read's retry must then read only pages
// still without a frame, cut afresh into runs of at most MaxIOPages. Both
// reads are cut to the frames they get, dropping the rest, as the
// page-list path did: pages 0-3 and 5-8 are read, each once.
func TestReadInRetryReadsWhatIsLeft(t *testing.T) {
	r := newRig(t, 64, 2, 4, Config{MaxIOPages: 4})
	for _, p := range []struct{ pid, pages int }{{2, 16}, {1, 64}} {
		r.vm.NewProcess(p.pid, p.pages)
		r.touchAll(t, p.pid, p.pages, true)
		r.vm.ReclaimFrom(p.pid, p.pages)
		r.eng.Run()
	}
	r.vm.SetVictimPolicy(PolicySelective)
	r.vm.SetOutgoing(1)
	r.vm.ReadPagesIn(1, seqPages(64), disk.Demand, nil) // pins every frame
	as := r.vm.Process(2)
	read := make([]int, 16)
	r.vm.submitted = func(req *disk.Request) {
		if req.Write || req.Run.N > 4 {
			t.Fatalf("request %+v: want reads of at most 4 pages", req.Run)
		}
		for s := req.Run.Start; s < req.Run.End(); s++ {
			if vp := int(s - as.Region().Start); vp >= 0 && vp < 16 {
				read[vp]++
			}
		}
	}
	resumed := false
	r.vm.Fault(as, 5, false, func() { resumed = true })
	r.vm.ReadPagesIn(2, seqPages(16), disk.Demand, nil)
	r.eng.Run()
	for vp, n := range read {
		want := 0
		if vp < 4 || vp >= 5 && vp < 9 {
			want = 1
		}
		if n != want || as.IsResident(vp) != (want == 1) {
			t.Fatalf("vpage %d read %d times (resident %v), want %d; reads %v", vp, n, as.IsResident(vp), want, read)
		}
	}
	if !resumed {
		t.Fatal("the fault never resumed")
	}
	if err := r.vm.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReadInRetryAbandonedAfterExit destroys a process while its prefetch
// waits for memory: the retry must drop the read and fire onDone, not take
// frames for the dead address space, which nothing would ever free.
func TestReadInRetryAbandonedAfterExit(t *testing.T) {
	r := newRig(t, 64, 2, 4, Config{})
	for _, p := range []struct{ pid, pages int }{{2, 8}, {1, 64}} {
		r.vm.NewProcess(p.pid, p.pages)
		r.touchAll(t, p.pid, p.pages, true)
		r.vm.ReclaimFrom(p.pid, p.pages)
		r.eng.Run()
	}
	// Process 1's read-back pins every frame, so process 2's prefetch has
	// to wait for memory.
	r.vm.ReadPagesIn(1, seqPages(64), disk.Demand, nil)
	done := false
	r.vm.ReadPagesIn(2, seqPages(8), disk.Demand, func() { done = true })
	r.vm.DestroyProcess(2)
	r.eng.Run()
	if !done {
		t.Fatal("the abandoned prefetch never fired onDone")
	}
	if free, res := r.phys.NumFree(), r.vm.Process(1).Resident(); free+res != 64 {
		t.Fatalf("%d free + %d resident frames of 64: the dead process kept %d", free, res, 64-free-res)
	}
	if err := r.vm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFaultPathMajor(b *testing.B) {
	b.ReportAllocs()
	// One process bigger than memory; every fault is a major fault with
	// reclaim — the hot path of the whole simulator.
	rr := benchRig(b, 2048)
	rr.vm.NewProcess(1, 4096)
	pos := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := rr.vm.ResidentRun(1, pos, 4096-pos)
		if run > 0 {
			rr.vm.TouchResident(1, pos, run, true)
			pos += run
		} else {
			done := false
			rr.vm.Fault(rr.vm.Process(1), pos, true, func() { done = true })
			rr.eng.Run()
			if !done {
				b.Fatal("fault stuck")
			}
		}
		if pos >= 4096 {
			pos = 0
		}
	}
}

func benchRig(b *testing.B, frames int) *rig {
	b.Helper()
	eng := sim.NewEngine(1)
	phys := mem.New(frames, 16, 48)
	d := disk.New(eng, disk.DefaultParams())
	sp := swap.New(1 << 20)
	return &rig{eng, phys, d, sp, New(eng, phys, d, sp, Config{})}
}
