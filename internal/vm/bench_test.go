package vm

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Layer benchmarks for victim and write-back selection. Each keeps the
// selection's input steady across iterations and stops the timer while it
// restores that input, so ns/op is the selection and its bookkeeping alone.

// sweepChunk is the process engine's default touch chunk (proc.ChunkPages):
// every page of a chunk is stamped with one LastUse.
const sweepChunk = 8192

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
		r.vm.TouchRun(1, chunk*sweepChunk, sweepChunk, true, r.eng.Now())
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
				r.vm.Fault(1, vp, false, func() {})
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
		r.vm.TouchRun(1, next, window, false, r.eng.Now())
		next = (next + window) % pages
		b.StartTimer()
	}
}
