package proc

import "testing"

// BenchmarkColdFill is the process engine's first touch of a fresh write
// segment: one process on an otherwise idle engine writes 65,536 pages
// (256 MB) that start demand-zero, with a frame free for each. Its touch
// windows run solo, so they fold the fills a stretch at a time. Each op
// builds the process and runs the engine until it finishes; only the run is
// timed, and ns/page is its cost per page filled.
func BenchmarkColdFill(b *testing.B) {
	const pages = 1 << 16
	b.ReportAllocs()
	for range b.N {
		b.StopTimer()
		r := newRig(b, pages+64)
		r.vm.NewProcess(1, pages)
		p := New(r.eng, r.vm, 1, simpleBehavior(pages, 1), nil, nil)
		b.StartTimer()
		p.Start()
		r.eng.Run()
		if !p.Done() || r.vm.Stats().ZeroFills != pages {
			b.Fatalf("process done %v after %d zero fills, want %d", p.Done(), r.vm.Stats().ZeroFills, pages)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
}
