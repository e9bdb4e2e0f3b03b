package vm

import (
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

func TestWriteBackPrefersYoungestDirty(t *testing.T) {
	r := newRig(t, 256, 0, 0, Config{})
	r.vm.NewProcess(1, 30)
	r.touchAll(t, 1, 30, true) // all dirty at t0
	// Advance time and re-touch pages 20-29, making them the youngest.
	r.eng.Schedule(sim.Second, func() {})
	r.eng.Run()
	r.vm.TouchResident(1, 20, 10, true)

	if n := r.vm.WriteBackDirty(1, 10, disk.Background); n != 10 {
		t.Fatalf("wrote %d, want 10", n)
	}
	r.eng.Run()
	// The youngest (20-29) must be the cleaned ones.
	for vp := 20; vp < 30; vp++ {
		if r.vm.DirtyPages(1) == 0 {
			break
		}
	}
	as := r.vm.Process(1)
	for vp := 0; vp < 20; vp++ {
		fid := as.frames[vp]
		if !r.vm.Phys().Frame(fid).Dirty {
			t.Fatalf("old page %d cleaned before younger pages", vp)
		}
	}
	for vp := 20; vp < 30; vp++ {
		fid := as.frames[vp]
		if r.vm.Phys().Frame(fid).Dirty {
			t.Fatalf("young page %d not cleaned", vp)
		}
	}
}

func TestWriteBackCapRespected(t *testing.T) {
	r := newRig(t, 256, 0, 0, Config{})
	r.vm.NewProcess(1, 100)
	r.touchAll(t, 1, 100, true)
	if n := r.vm.WriteBackDirty(1, 7, disk.Background); n != 7 {
		t.Fatalf("wrote %d, want 7", n)
	}
	if d := r.vm.DirtyPages(1); d != 93 {
		t.Fatalf("dirty = %d", d)
	}
	if n := r.vm.WriteBackDirty(1, 0, disk.Background); n != 0 {
		t.Fatalf("zero cap wrote %d", n)
	}
}

func TestWriteBackAllWhenFewerThanCap(t *testing.T) {
	r := newRig(t, 256, 0, 0, Config{})
	r.vm.NewProcess(1, 10)
	r.touchAll(t, 1, 10, true)
	if n := r.vm.WriteBackDirty(1, 1000, disk.Demand); n != 10 {
		t.Fatalf("wrote %d, want all 10", n)
	}
	// Demand-priority write-back counts as regular page-out traffic.
	if r.vm.Stats().PagesOut != 10 || r.vm.Stats().BGPagesOut != 0 {
		t.Fatalf("accounting: %+v", r.vm.Stats())
	}
}

// TestWriteBackStopsAtTiedWords pins the tie rule: when a whole sweep
// shares one timestamp, every dirty word has the same bound, and the
// selection must stop after the lowest words that fill the batch instead
// of scanning every word of the sweep.
func TestWriteBackStopsAtTiedWords(t *testing.T) {
	const pages, batch = 2048, 256
	r := newRig(t, pages+64, 0, 0, Config{})
	r.vm.NewProcess(1, pages)
	r.touchAll(t, 1, pages, false)
	as := r.vm.Process(1)
	at := r.eng.Now()
	if n := r.vm.TouchRun(1, 0, pages, true, at); n != pages {
		t.Fatalf("touched %d pages, want %d", n, pages)
	}
	for pass := 0; pass < 3; pass++ {
		kept, scanned := r.vm.youngestDirty(as, batch)
		if len(kept) != batch || len(scanned) != batch/64 {
			t.Fatalf("pass %d kept %d pages from %d scanned words, want %d from %d",
				pass, len(kept), len(scanned), batch, batch/64)
		}
		if n := r.vm.WriteBackDirty(1, batch, disk.Background); n != batch {
			t.Fatalf("pass %d wrote %d pages, want %d", pass, n, batch)
		}
		// Youngest-first with vpage tie-break: the pass cleans the lowest
		// still-dirty pages of the tied sweep.
		for vp := 0; vp < pages; vp++ {
			if dirty := r.vm.Phys().Frame(as.frames[vp]).Dirty; dirty != (vp >= (pass+1)*batch) {
				t.Fatalf("after pass %d vpage %d dirty = %v", pass, vp, dirty)
			}
		}
		if err := r.vm.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestValidateChecksDirtyBound corrupts one word's bound: a bound above
// every dirty page's LastUse is stale but sound, one below is an error
// naming the process and the word.
func TestValidateChecksDirtyBound(t *testing.T) {
	r := newRig(t, 256, 0, 0, Config{})
	r.vm.NewProcess(1, 200)
	r.touchAll(t, 1, 200, true)
	as := r.vm.Process(1)
	const word = 2
	last := r.vm.Phys().Frame(as.frames[word*64+5]).LastUse
	as.dirtyBound[word] = last + sim.Time(sim.Second)
	if err := r.vm.Validate(); err != nil {
		t.Fatalf("stale-high bound rejected: %v", err)
	}
	as.dirtyBound[word] = last - 1
	err := r.vm.Validate()
	if err == nil {
		t.Fatal("bound below a dirty page's LastUse passed Validate")
	}
	if msg := err.Error(); !strings.Contains(msg, "pid 1 ") || !strings.Contains(msg, "word 2 ") {
		t.Fatalf("error %q does not name pid 1 and word 2", msg)
	}
}
