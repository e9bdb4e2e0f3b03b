package vm

import (
	"testing"

	"repro/internal/disk"
)

// TestTouchedCountsPerQuantum pins the working-set estimator's counting:
// after BeginQuantum every page touched counts once toward the new
// quantum's working set, and a re-touch within the quantum does not count
// again.
func TestTouchedCountsPerQuantum(t *testing.T) {
	r := newRig(t, 128, 4, 8, Config{})
	r.vm.NewProcess(1, 8)
	r.touchAll(t, 1, 8, false)
	as := r.vm.Process(1)
	if as.touched != 8 {
		t.Fatalf("touched = %d, want 8", as.touched)
	}
	r.vm.BeginQuantum(1)
	r.vm.TouchResident(1, 0, 4, false)
	if as.touched != 4 {
		t.Fatalf("touched after BeginQuantum = %d, want 4", as.touched)
	}
	r.vm.TouchResident(1, 0, 4, false)
	if as.touched != 4 {
		t.Fatalf("re-touch double-counted: touched = %d, want 4", as.touched)
	}
}

// dirtyEvictions drives reclaim passes until at least n dirty pages of the
// rig have been evicted with write-backs queued (the engine is NOT run, so
// the writes stay pending on the disk queue).
func (r *rig) dirtyEvictions(t *testing.T, n int) {
	t.Helper()
	for pass := 0; pass < 256 && r.vm.PendingWriteBacks() < n; pass++ {
		r.vm.Reclaim(n)
	}
	if r.vm.PendingWriteBacks() < n {
		t.Fatalf("could not queue %d dirty evictions (pending=%d)", n, r.vm.PendingWriteBacks())
	}
}

// TestCrashDropsPendingWriteBacks pins the headline conservation bug: a
// write-back that was queued but had not completed when the node crashed
// died with the disk queue — the data never reached the swap slot. The old
// code marked onDisk at queue time, so after the crash the page looked
// swap-backed and a re-fault issued a phantom disk read of a slot that was
// never written. Now the page must lose its backing and demand-zero fault.
func TestCrashDropsPendingWriteBacks(t *testing.T) {
	r := newRig(t, 64, 4, 8, Config{})
	r.vm.NewProcess(1, 120)
	r.touchAll(t, 1, 120, true) // dirty everything; evictions queue writes
	r.dirtyEvictions(t, 8)

	as := r.vm.Process(1)
	victim := -1
	for vp := 0; vp < as.NumPages(); vp++ {
		if as.PendingWrites(vp) > 0 && !as.WriteCompleted(vp) {
			victim = vp
			break
		}
	}
	if victim == -1 {
		t.Fatal("no page with a pending-only write-back")
	}
	if !as.OnDisk(victim) {
		t.Fatal("queued write-back must make the page read as backed")
	}

	// Crash before the queued writes are serviced. Callers pair VM.Crash
	// with Disk.Reset in the same instant; do the same here.
	r.vm.Crash()
	r.dsk.Reset()
	r.eng.Run()

	if got := r.vm.PendingWriteBacks(); got != 0 {
		t.Fatalf("pending write-backs after crash = %d, want 0", got)
	}
	if as.OnDisk(victim) {
		t.Fatal("crash resurrected a swap copy that was never written")
	}
	zf := r.vm.Stats().ZeroFills
	mf := r.vm.Stats().MajorFaults
	done := false
	r.vm.Fault(r.vm.Process(1), victim, false, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("post-crash fault never resumed")
	}
	if r.vm.Stats().MajorFaults != mf {
		t.Fatal("post-crash fault read a phantom swap slot (major fault)")
	}
	if r.vm.Stats().ZeroFills != zf+1 {
		t.Fatalf("post-crash fault was not a demand-zero fill (zerofills %d -> %d)", zf, r.vm.Stats().ZeroFills)
	}
	if err := r.vm.Validate(); err != nil {
		t.Fatalf("Validate after crash: %v", err)
	}
}

// TestCrashKeepsCompletedWriteBacks is the counterpart: a write that DID
// complete before the crash left a valid (if stale) copy on the device, and
// that backing must survive — a re-fault reads it back as a major fault.
func TestCrashKeepsCompletedWriteBacks(t *testing.T) {
	r := newRig(t, 64, 4, 8, Config{})
	r.vm.NewProcess(1, 120)
	r.touchAll(t, 1, 120, true)
	r.dirtyEvictions(t, 8)
	r.eng.Run() // let every queued write complete

	as := r.vm.Process(1)
	victim := -1
	for vp := 0; vp < as.NumPages(); vp++ {
		if as.WriteCompleted(vp) && !as.IsResident(vp) {
			victim = vp
			break
		}
	}
	if victim == -1 {
		t.Fatal("no page with a completed write-back")
	}

	r.vm.Crash()
	r.dsk.Reset()
	r.eng.Run()

	if !as.OnDisk(victim) {
		t.Fatal("completed swap copy lost in crash")
	}
	mf := r.vm.Stats().MajorFaults
	done := false
	r.vm.Fault(r.vm.Process(1), victim, false, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("post-crash fault never resumed")
	}
	if r.vm.Stats().MajorFaults != mf+1 {
		t.Fatal("surviving swap copy was not read back as a major fault")
	}
}

// TestDestroyMidWriteBack pins the swap-slot lifecycle on DestroyProcess
// with writes still in the disk queue: the region is released immediately
// (no slot leak), the pending aggregate is drained, and the orphaned disk
// completions — which still fire, the disk was not reset — must not touch a
// reused pid's fresh address space.
func TestDestroyMidWriteBack(t *testing.T) {
	r := newRig(t, 64, 4, 8, Config{})
	r.vm.NewProcess(1, 120)
	r.touchAll(t, 1, 120, true)
	r.dirtyEvictions(t, 8)

	used := r.space.Used()
	if used == 0 {
		t.Fatal("expected a reserved swap region")
	}
	r.vm.DestroyProcess(1)
	if got := r.space.Used(); got != 0 {
		t.Fatalf("swap slots leaked after destroy: used = %d", got)
	}
	if got := r.vm.PendingWriteBacks(); got != 0 {
		t.Fatalf("pending write-backs after destroy = %d, want 0", got)
	}

	// Reuse the pid before the orphaned writes complete.
	r.vm.NewProcess(1, 50)
	r.eng.Run() // orphan completions fire here; identity guard must drop them
	as := r.vm.Process(1)
	for vp := 0; vp < as.NumPages(); vp++ {
		if as.PendingWrites(vp) != 0 || as.WriteCompleted(vp) {
			t.Fatalf("orphan completion leaked into reused pid at vpage %d", vp)
		}
	}
	if err := r.vm.Validate(); err != nil {
		t.Fatalf("Validate after reuse: %v", err)
	}
}

// TestWriteBackCompletionSemantics pins the completion-time onDisk contract:
// a queued write makes the page read as backed immediately (the data is on
// its way and behaviour must match the old queue-time accounting), but
// WriteCompleted flips only when the transfer lands.
func TestWriteBackCompletionSemantics(t *testing.T) {
	r := newRig(t, 256, 0, 0, Config{})
	r.vm.NewProcess(1, 10)
	r.touchAll(t, 1, 10, true)
	if n := r.vm.WriteBackDirty(1, 4, disk.Background); n != 4 {
		t.Fatalf("queued %d, want 4", n)
	}
	as := r.vm.Process(1)
	queued := 0
	for vp := 0; vp < 10; vp++ {
		if as.PendingWrites(vp) > 0 {
			queued++
			if !as.OnDisk(vp) {
				t.Fatalf("queued page %d not reading as backed", vp)
			}
			if as.WriteCompleted(vp) {
				t.Fatalf("page %d completed before the disk ran", vp)
			}
		}
	}
	if queued != 4 {
		t.Fatalf("pending pages = %d, want 4", queued)
	}
	if got := r.vm.PendingWriteBacks(); got != 4 {
		t.Fatalf("aggregate pending = %d, want 4", got)
	}
	r.eng.Run()
	if got := r.vm.PendingWriteBacks(); got != 0 {
		t.Fatalf("aggregate pending after run = %d, want 0", got)
	}
	completed := 0
	for vp := 0; vp < 10; vp++ {
		if as.WriteCompleted(vp) {
			completed++
		}
	}
	if completed != 4 {
		t.Fatalf("completed pages = %d, want 4", completed)
	}
}
