package audit

import "testing"

// BenchmarkAuditSweep prices one full-sweep audit pass, the oracle that
// re-derives every counter from the page tables: Auditor.Check with
// CrossEvery 1 on makeCluster's node stepped to mid-run, with pages
// resident and reclaim and write-back under way. Every pass sweeps,
// whether or not the node's books moved.
func BenchmarkAuditSweep(b *testing.B) {
	c := makeCluster(b)
	a := New(c, Config{CrossEvery: 1})
	c.Scheduler().Start()
	step(b, c, 400)
	if err := a.Check(); err != nil { // sizes the scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := a.Check(); err != nil {
			b.Fatal(err)
		}
	}
}
