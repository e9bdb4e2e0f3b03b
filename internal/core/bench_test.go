package core

import (
	"testing"

	"repro/internal/disk"
)

// switchRig is one node time-sharing two so/ao/ai/bg processes whose images
// together overcommit its memory by a third. Process 1 has run and written
// its whole image; process 2 has replaced it and written its own, so 1 is
// partly paged out and recorded, and 2 is resident and dirty.
type switchRig struct {
	*rig
	pages int
}

func newSwitchRig(tb testing.TB, pages int) *switchRig {
	tb.Helper()
	r := &switchRig{newRig(tb, pages*3/2, SOAOAIBG), pages}
	r.vm.NewProcess(1, pages)
	r.vm.NewProcess(2, pages)
	r.k.MarkRunning(1)
	r.touchAll(tb, 1, pages, true)
	r.switchTo(2, 1)
	r.touchAll(tb, 2, pages, true)
	return r
}

// switchTo is one gang switch from out to in: out stops, its pages make
// room for in's whole image, in runs, and its record is read back. It
// returns once every transfer has landed; in then writes its image, as its
// quantum would.
func (r *switchRig) switchTo(in, out int) {
	r.k.MarkStopped(out)
	r.k.AdaptivePageOut(in, out, r.pages)
	r.k.MarkRunning(in)
	r.k.AdaptivePageIn(in, out, r.pages, nil)
	r.eng.Run()
	r.vm.TouchRun(r.vm.Process(in), 0, r.pages, true, r.eng.Now())
}

// BenchmarkSwitchPaging is the gang-switch layer: one op is a switch each
// way between two 64 MB processes on a 96 MB node, with aggressive and
// selective page-out of the outgoing image, adaptive page-in of the
// incoming one's record, and their write-backs and reads to completion.
func BenchmarkSwitchPaging(b *testing.B) {
	const pages = 1 << 14
	r := newSwitchRig(b, pages)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		r.switchTo(1, 2)
		r.switchTo(2, 1)
	}
	b.StopTimer()
	if as := r.vm.Process(2); as.Resident() != pages {
		b.Fatalf("the incoming process has %d of %d pages resident", as.Resident(), pages)
	}
}

// TestSwitchPagingAllocatesNothing pins the switch-time paging path: once
// the pools and records are warm, a switch each way plus one
// background-writer pass (what the daemon calls each wake-up) allocate
// nothing.
func TestSwitchPagingAllocatesNothing(t *testing.T) {
	const pages = 1 << 10
	r := newSwitchRig(t, pages)
	pair := func() {
		r.switchTo(1, 2)
		r.vm.WriteBackDirty(1, r.k.cfg.BGWriteBatch, disk.Background)
		r.switchTo(2, 1)
	}
	pair()
	prefetched := r.k.Stats().PrefetchedPages
	if n := testing.AllocsPerRun(20, pair); n != 0 {
		t.Errorf("a switch pair and a write-back pass allocate %v times", n)
	}
	if r.k.Stats().PrefetchedPages == prefetched || r.vm.Process(2).Resident() != pages {
		t.Fatalf("the switches prefetched %d pages and left %d of %d resident",
			r.k.Stats().PrefetchedPages-prefetched, r.vm.Process(2).Resident(), pages)
	}
}
