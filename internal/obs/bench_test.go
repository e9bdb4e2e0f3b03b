package obs

import "testing"

// BenchmarkBusEmit prices one event through a run's bus: the sequence
// stamp and the fan-out to a full (wrapping) 256-event ring and a
// counting sink. It allocates nothing.
func BenchmarkBusEmit(b *testing.B) {
	count := NewCountSink()
	bus := NewBus(NewRing(256), count)
	ev := Event{T: 1, Kind: KindPageOutBatch, Node: 3, PID: 2, Pages: 64, Prio: "demand"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Emit(ev)
	}
	if count.Total != int64(b.N) {
		b.Fatalf("counted %d of %d events", count.Total, b.N)
	}
}
