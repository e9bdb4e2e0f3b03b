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
		if !as.Dirty(vp) {
			t.Fatalf("old page %d cleaned before younger pages", vp)
		}
	}
	for vp := 20; vp < 30; vp++ {
		if as.Dirty(vp) {
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
	if n := r.vm.TouchRun(r.vm.Process(1), 0, pages, true, at); n != pages {
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
			if dirty := as.Dirty(vp); dirty != (vp >= (pass+1)*batch) {
				t.Fatalf("after pass %d vpage %d dirty = %v", pass, vp, dirty)
			}
		}
		if err := r.vm.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestValidateChecksDirtyBound corrupts one word's bound: a bound above
// every dirty page's lastUse is stale but sound, one below is an error
// naming the process and the word.
func TestValidateChecksDirtyBound(t *testing.T) {
	r := newRig(t, 256, 0, 0, Config{})
	r.vm.NewProcess(1, 200)
	r.touchAll(t, 1, 200, true)
	as := r.vm.Process(1)
	const word = 2
	last := as.lastUsed(word*64 + 5)
	as.dirtyBound[word] = last + sim.Time(sim.Second)
	if err := r.vm.Validate(); err != nil {
		t.Fatalf("stale-high bound rejected: %v", err)
	}
	as.dirtyBound[word] = last - 1
	err := r.vm.Validate()
	if err == nil {
		t.Fatal("bound below a dirty page's lastUse passed Validate")
	}
	if msg := err.Error(); !strings.Contains(msg, "pid 1 ") || !strings.Contains(msg, "word 2 ") {
		t.Fatalf("error %q does not name pid 1 and word 2", msg)
	}
}

// TestValidateChecksPageState corrupts one page-state invariant per case;
// Validate must reject each with an error naming the process and the page
// (or, for a counter, the counter).
func TestValidateChecksPageState(t *testing.T) {
	const unmapped = 180 // pages [0, 150) are resident and dirty
	cases := []struct {
		name    string
		corrupt func(as *AddressSpace)
		want    string
	}{
		{"settled without a frame", func(as *AddressSpace) { setBit(as.settled, unmapped) }, "resident counter"},
		{"resident page not settled", func(as *AddressSpace) { clearBit(as.settled, 70) }, "vpage 70 dirty but not settled"},
		{"settled and in flight", func(as *AddressSpace) { setBit(as.inFlight, 70) }, "vpage 70 settled and in flight"},
		{"dirty but not settled", func(as *AddressSpace) { setBit(as.dirtyMap, unmapped) }, "vpage 180 dirty"},
		{"bg-clean on a dirty page", func(as *AddressSpace) { setBit(as.bgClean, 10) }, "vpage 10 bg-clean"},
		{"referenced without a frame", func(as *AddressSpace) { setBit(as.ref, unmapped) }, "vpage 180 referenced"},
		{"touched counter drift", func(as *AddressSpace) { as.touched++ }, "touched counter"},
		{"mapped counter drift", func(as *AddressSpace) { as.mapped-- }, "mapped counter"},
		{"pending write-back counter drift", func(as *AddressSpace) { as.wbPages++ }, "write-back pending counter"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, 256, 0, 0, Config{})
			r.vm.NewProcess(1, 200)
			r.touchAll(t, 1, 150, true)
			if err := r.vm.Validate(); err != nil {
				t.Fatalf("healthy image rejected: %v", err)
			}
			c.corrupt(r.vm.Process(1))
			err := r.vm.Validate()
			if err == nil {
				t.Fatal("corruption passed Validate")
			}
			if msg := err.Error(); !strings.Contains(msg, "pid 1 ") || !strings.Contains(msg, c.want) {
				t.Fatalf("error %q does not name pid 1 and %q", msg, c.want)
			}
		})
	}
}
