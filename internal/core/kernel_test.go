package core

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/vm"
)

type rig struct {
	eng *sim.Engine
	vm  *vm.VM
	k   *Kernel
}

func newRig(t testing.TB, frames int, features Features) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	phys := mem.New(frames, 8, 16)
	d := disk.New(eng, disk.DefaultParams())
	sp := swap.New(1 << 20)
	v := vm.New(eng, phys, d, sp, vm.Config{})
	k := NewKernel(eng, v, features, Config{})
	return &rig{eng, v, k}
}

func (r *rig) touchAll(t testing.TB, pid, n int, write bool) {
	t.Helper()
	pos := 0
	for pos < n {
		run := r.vm.ResidentRun(pid, pos, n-pos)
		if run > 0 {
			r.vm.TouchResident(pid, pos, run, write)
			pos += run
			continue
		}
		done := false
		r.vm.Fault(r.vm.Process(pid), pos, write, func() { done = true })
		r.eng.Run()
		if !done {
			t.Fatalf("fault at %d stuck", pos)
		}
	}
}

func TestSelectiveFeatureSetsPolicy(t *testing.T) {
	r := newRig(t, 64, SO)
	if r.vm.VictimPolicy() != vm.PolicySelective {
		t.Fatal("selective feature did not set VM policy")
	}
	r2 := newRig(t, 64, Orig)
	if r2.vm.VictimPolicy() != vm.PolicyDefault {
		t.Fatal("orig must keep default policy")
	}
}

func TestAdaptivePageOutAggressive(t *testing.T) {
	r := newRig(t, 200, SOAO)
	r.vm.NewProcess(1, 150)
	r.vm.NewProcess(2, 150)
	r.vm.BeginQuantum(1)
	r.touchAll(t, 1, 150, true)
	r.eng.Run()
	free := r.vm.Phys().NumFree()
	// Switch 1 -> 2 with an explicit working set of 120 pages.
	evicted := r.k.AdaptivePageOut(2, 1, 120)
	if evicted != 120-free {
		t.Fatalf("evicted %d, want %d", evicted, 120-free)
	}
	if r.vm.Phys().NumFree() < 120 {
		t.Fatalf("free after aggressive pageout = %d, want >= 120", r.vm.Phys().NumFree())
	}
	if r.vm.Outgoing() != 1 {
		t.Fatal("outgoing pid not designated")
	}
	if r.k.Stats().SwitchEvictions != int64(evicted) {
		t.Fatal("SwitchEvictions miscounted")
	}
}

func TestAdaptivePageOutUsesKernelEstimate(t *testing.T) {
	r := newRig(t, 200, SOAO)
	r.vm.NewProcess(1, 150)
	r.vm.NewProcess(2, 100)
	// Run pid 2 for a quantum touching 90 pages so the kernel can estimate.
	r.vm.BeginQuantum(2)
	r.touchAll(t, 2, 90, true)
	r.vm.BeginQuantum(2)
	// Now fill memory with pid 1.
	r.vm.BeginQuantum(1)
	r.touchAll(t, 1, 150, true)
	free := r.vm.Phys().NumFree()
	evicted := r.k.AdaptivePageOut(2, 1, 0) // ws = estimate = 90
	if want := 90 - free; evicted != want {
		t.Fatalf("evicted %d, want %d (ws estimate 90)", evicted, want)
	}
}

func TestAdaptivePageOutDisabledIsNoop(t *testing.T) {
	r := newRig(t, 200, SO) // selective only
	r.vm.NewProcess(1, 150)
	r.vm.NewProcess(2, 100)
	r.touchAll(t, 1, 150, true)
	if n := r.k.AdaptivePageOut(2, 1, 100); n != 0 {
		t.Fatalf("non-aggressive kernel evicted %d pages", n)
	}
	if r.vm.Outgoing() != 1 {
		t.Fatal("selective designation must still happen")
	}
}

func TestAdaptivePageOutNoOutgoing(t *testing.T) {
	// A switch with no outgoing process (the previous job exited) must be
	// a safe no-op, not a panic.
	r := newRig(t, 100, SOAOAIBG)
	r.vm.NewProcess(1, 50)
	if n := r.k.AdaptivePageOut(1, 0, 50); n != 0 {
		t.Fatalf("evicted %d with no outgoing process", n)
	}
	if r.vm.Outgoing() != 0 {
		t.Fatal("outgoing designated without an outgoing process")
	}
	// Same for an outgoing pid whose address space is already destroyed.
	if n := r.k.AdaptivePageOut(1, 99, 50); n != 0 {
		t.Fatalf("evicted %d from a dead process", n)
	}
}

func TestAdaptivePageOutSamePIDPanics(t *testing.T) {
	r := newRig(t, 64, SOAO)
	r.vm.NewProcess(1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.k.AdaptivePageOut(1, 1, 0)
}

func TestAdaptivePageInReplaysRecord(t *testing.T) {
	r := newRig(t, 200, SOAOAIBG)
	r.vm.NewProcess(1, 150)
	r.vm.NewProcess(2, 150)
	r.vm.BeginQuantum(1)
	r.touchAll(t, 1, 150, true)
	// Switch 1 -> 2: pid 1 stops; its evictions are recorded.
	r.k.MarkStopped(1)
	r.k.MarkRunning(2)
	r.k.AdaptivePageOut(2, 1, 140)
	rec := r.k.RecordLen(1)
	if rec == 0 {
		t.Fatal("no pages recorded during switch page-out")
	}
	r.eng.Run()
	// Switch 2 -> 1: prefetch pid 1's recorded pages.
	r.k.MarkStopped(2)
	r.k.MarkRunning(1)
	done := false
	n := r.k.AdaptivePageIn(1, 2, 0, func() { done = true })
	if n != rec {
		t.Fatalf("prefetched %d, want %d", n, rec)
	}
	if r.k.RecordLen(1) != 0 {
		t.Fatal("record not cleared after replay")
	}
	r.eng.Run()
	if !done {
		t.Fatal("prefetch completion never fired")
	}
	if got := r.vm.Process(1).Stats().PagesIn; got != int64(n) {
		t.Fatalf("pages read back = %d, want %d", got, n)
	}
	if r.k.Stats().PrefetchedPages != int64(n) || r.k.Stats().PrefetchRequests != 1 {
		t.Fatalf("stats = %+v", r.k.Stats())
	}
}

// TestRecordReset checks that a replay empties the record, and that the
// record then holds the next stop's page-outs alone.
func TestRecordReset(t *testing.T) {
	r := newRig(t, 200, AI)
	r.vm.NewProcess(1, 100)
	r.touchAll(t, 1, 100, true)
	r.k.MarkStopped(1)
	r.vm.ReclaimFrom(1, 30)
	r.eng.Run()
	rec := r.k.records[1]
	r.k.MarkRunning(1)
	if n := r.k.AdaptivePageIn(1, 0, 0, nil); n != 30 {
		t.Fatalf("replayed %d pages, want 30", n)
	}
	if rec.Len() != 0 || recordPages(rec) != nil {
		t.Fatalf("record holds %d pages %v after its replay", rec.Len(), recordPages(rec))
	}
	r.eng.Run()
	r.k.MarkStopped(1)
	r.vm.ReclaimFrom(1, 10)
	if rec.Len() != 10 || len(recordPages(rec)) != 10 {
		t.Fatalf("record holds %d pages %v after 10 more page-outs", rec.Len(), recordPages(rec))
	}
}

func TestAdaptivePageInDisabledOrEmpty(t *testing.T) {
	r := newRig(t, 64, SO)
	r.vm.NewProcess(1, 10)
	called := false
	if n := r.k.AdaptivePageIn(1, 0, 0, func() { called = true }); n != 0 || !called {
		t.Fatal("disabled AdaptivePageIn must no-op and still call onDone")
	}
	r2 := newRig(t, 64, AI)
	r2.vm.NewProcess(1, 10)
	called = false
	if n := r2.k.AdaptivePageIn(1, 0, 0, func() { called = true }); n != 0 || !called {
		t.Fatal("empty record must no-op and still call onDone")
	}
}

func TestRunningProcessEvictionsNotRecorded(t *testing.T) {
	// Intra-job paging (a running process evicting its own pages) must not
	// pollute the record, per §2.
	r := newRig(t, 100, AI)
	r.vm.NewProcess(1, 200)
	r.k.MarkRunning(1)
	r.touchAll(t, 1, 200, true) // self-eviction under pressure
	if r.k.RecordLen(1) != 0 {
		t.Fatalf("recorded %d intra-job evictions", r.k.RecordLen(1))
	}
}

// TestPageOutRecordFollowsStopMarks drives the page-out hook with
// stretches of evictions while the stop marks change under it: every
// change (MarkStopped, MarkRunning, Forget, CrashReset) must take effect on
// the next eviction, even of the pid the hook saw last.
func TestPageOutRecordFollowsStopMarks(t *testing.T) {
	r := newRig(t, 64, AI)
	hook := r.vm.OnPageOut
	out := func(pid, vp int) { hook(pid, vp>>6, 1<<(vp&63)) }
	check := func(step string, rec1, rec2 int, recorded int64) {
		t.Helper()
		if r.k.RecordLen(1) != rec1 || r.k.RecordLen(2) != rec2 || r.k.Stats().RecordedPages != recorded {
			t.Fatalf("after %s: records %d and %d, %d pages recorded; want %d, %d, %d",
				step, r.k.RecordLen(1), r.k.RecordLen(2), r.k.Stats().RecordedPages, rec1, rec2, recorded)
		}
	}
	r.k.MarkStopped(1)
	out(1, 10)
	out(1, 11)
	check("pid 1 stopped", 2, 0, 2)
	r.k.MarkRunning(1)
	out(1, 12)
	check("pid 1 running", 2, 0, 2)
	out(2, 5)
	check("pid 2 running", 2, 0, 2)
	r.k.MarkStopped(2)
	out(2, 6)
	check("pid 2 stopped", 2, 1, 3)
	r.k.Forget(2)
	out(2, 7)
	check("pid 2 forgotten", 2, 0, 3)
	r.k.MarkStopped(1)
	out(1, 13)
	check("pid 1 stopped again", 3, 0, 4)
	r.k.CrashReset()
	out(1, 14)
	check("crash", 0, 0, 4)
}

func TestBGWriterFlushesDirtyPages(t *testing.T) {
	r := newRig(t, 200, SOAOBG)
	r.vm.NewProcess(1, 100)
	r.touchAll(t, 1, 100, true)
	if d := r.vm.DirtyPages(1); d != 100 {
		t.Fatalf("dirty = %d", d)
	}
	r.k.StartBGWrite(1)
	if pid, on := r.k.BGWriteActive(); !on || pid != 1 {
		t.Fatal("daemon not active")
	}
	r.eng.RunFor(2 * sim.Second)
	if d := r.vm.DirtyPages(1); d != 0 {
		t.Fatalf("dirty after bg writing = %d, want 0", d)
	}
	if r.vm.Stats().BGPagesOut != 100 {
		t.Fatalf("BGPagesOut = %d", r.vm.Stats().BGPagesOut)
	}
	r.k.StopBGWrite()
	if _, on := r.k.BGWriteActive(); on {
		t.Fatal("daemon still active after stop")
	}
	// After stop, no further passes happen.
	passes := r.k.Stats().BGWritePasses
	r.touchAll(t, 1, 50, true)
	r.eng.RunFor(2 * sim.Second)
	if r.k.Stats().BGWritePasses != passes {
		t.Fatal("daemon ran after StopBGWrite")
	}
}

// TestBGPassAllocFree pins a steady background writer at zero
// allocations per pass: the pass is bound once and re-arms its own event,
// and the write-back it queues uses pooled records.
func TestBGPassAllocFree(t *testing.T) {
	r := newRig(t, 4096, SOAOBG)
	r.vm.NewProcess(1, 1024)
	r.touchAll(t, 1, 1024, true)
	r.k.StartBGWrite(1)
	interval := DefaultConfig().BGWriteInterval
	r.eng.RunFor(2 * interval) // sizes the pools
	before := r.k.Stats().BGWritePasses
	allocs := testing.AllocsPerRun(50, func() {
		r.vm.TouchResident(1, 0, 1024, true) // dirty again for the next pass
		r.eng.RunFor(interval)
	})
	if passes := r.k.Stats().BGWritePasses - before; passes < 50 {
		t.Fatalf("%d passes wrote back, want one per interval", passes)
	}
	if allocs != 0 {
		t.Fatalf("a background-writer pass allocates %.1f objects, want 0", allocs)
	}
}

func TestBGWriterDisabledFeature(t *testing.T) {
	r := newRig(t, 64, SO)
	r.vm.NewProcess(1, 10)
	r.k.StartBGWrite(1)
	if _, on := r.k.BGWriteActive(); on {
		t.Fatal("bg writer started despite disabled feature")
	}
}

func TestBGWriterUnknownPIDPanics(t *testing.T) {
	r := newRig(t, 64, SOAOBG)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.k.StartBGWrite(9)
}

func TestBGWritesAreBackgroundPriority(t *testing.T) {
	r := newRig(t, 200, SOAOBG)
	r.vm.NewProcess(1, 50)
	r.touchAll(t, 1, 50, true)
	r.k.StartBGWrite(1)
	r.eng.RunFor(2 * sim.Second)
	st := r.vm.Disk().Stats()
	if st.BackgroundTime == 0 {
		t.Fatal("no background-priority disk time recorded")
	}
}

func TestForgetDropsState(t *testing.T) {
	r := newRig(t, 100, SOAOAIBG)
	r.vm.NewProcess(1, 80)
	r.touchAll(t, 1, 80, true)
	r.k.MarkStopped(1)
	r.vm.ReclaimFrom(1, 40)
	if r.k.RecordLen(1) == 0 {
		t.Fatal("precondition: record should be non-empty")
	}
	r.k.StartBGWrite(1)
	r.k.Forget(1)
	if r.k.RecordLen(1) != 0 {
		t.Fatal("record survived Forget")
	}
	if _, on := r.k.BGWriteActive(); on {
		t.Fatal("bg writer survived Forget")
	}
}

func TestMovingBGWriterBetweenProcesses(t *testing.T) {
	r := newRig(t, 300, SOAOBG)
	r.vm.NewProcess(1, 50)
	r.vm.NewProcess(2, 50)
	r.touchAll(t, 1, 50, true)
	r.touchAll(t, 2, 50, true)
	r.k.StartBGWrite(1)
	r.k.StartBGWrite(2) // moves the daemon
	if pid, _ := r.k.BGWriteActive(); pid != 2 {
		t.Fatalf("daemon pid = %d, want 2", pid)
	}
	r.eng.RunFor(2 * sim.Second)
	if r.vm.DirtyPages(2) != 0 {
		t.Fatal("pid 2 not flushed")
	}
	if r.vm.DirtyPages(1) == 0 {
		t.Fatal("pid 1 should have been left dirty after the move")
	}
}

func TestRecordedPagesSurviveMultipleSwitchCycles(t *testing.T) {
	// Two processes ping-ponging: every cycle the incoming process's
	// prefetch must restore exactly what was evicted while it was stopped.
	r := newRig(t, 220, SOAOAIBG)
	r.vm.NewProcess(1, 150)
	r.vm.NewProcess(2, 150)
	r.vm.BeginQuantum(1)
	r.k.MarkRunning(1)
	r.k.MarkStopped(2)
	r.touchAll(t, 1, 150, true)

	cur, next := 1, 2
	for cycle := 0; cycle < 4; cycle++ {
		r.k.MarkStopped(cur)
		r.k.MarkRunning(next)
		r.vm.BeginQuantum(next)
		r.k.AdaptivePageOut(next, cur, 150)
		r.k.AdaptivePageIn(next, cur, 0, nil)
		r.eng.Run()
		r.touchAll(t, next, 150, true)
		r.eng.Run()
		if err := r.vm.Validate(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		cur, next = next, cur
	}
	if r.k.Stats().PrefetchedPages == 0 {
		t.Fatal("prefetch never happened across cycles")
	}
}
