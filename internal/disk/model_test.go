package disk

import (
	"testing"

	"repro/internal/sim"
)

func TestIdleResyncChargesRotation(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, testParams())
	var svcs []sim.Duration
	rec := func(s sim.Duration) { svcs = append(svcs, s) }

	// First request: full seek.
	d.Submit(&Request{Run: Run{Start: 0, N: 8}, Done: rec})
	eng.Run() // disk drains and goes idle

	// Adjacent request after idle: the platter rotated away, so resuming
	// the stream costs two average rotational latencies (≈ one full
	// revolution), not a free continuation.
	d.Submit(&Request{Run: Run{Start: 8, N: 8}, Done: rec})
	eng.Run()
	want := 2*4*sim.Millisecond + 8*100*sim.Microsecond
	if svcs[1] != want {
		t.Fatalf("post-idle adjacent service = %v, want %v", svcs[1], want)
	}

	// Back-to-back adjacent requests (queued while busy) stream for free.
	d.Submit(&Request{Run: Run{Start: 16, N: 8}, Done: rec})
	d.Submit(&Request{Run: Run{Start: 24, N: 8}, Done: rec})
	eng.Run()
	// The first of the two paid the resync (disk was idle), the second
	// was queued behind it and streams.
	if svcs[3] != 8*100*sim.Microsecond {
		t.Fatalf("queued adjacent service = %v, want transfer-only", svcs[3])
	}
}

func TestIdleResyncNotChargedWhenSeeking(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, testParams())
	var svcs []sim.Duration
	rec := func(s sim.Duration) { svcs = append(svcs, s) }
	d.Submit(&Request{Run: Run{Start: 0, N: 1}, Done: rec})
	eng.Run()
	// Non-adjacent after idle: plain seek+rot, no extra resync on top.
	d.Submit(&Request{Run: Run{Start: 5000, N: 1}, Done: rec})
	eng.Run()
	want := 8*sim.Millisecond + 4*sim.Millisecond + 100*sim.Microsecond
	if svcs[1] != want {
		t.Fatalf("post-idle seek service = %v, want %v", svcs[1], want)
	}
}

func TestPositionalSeekModel(t *testing.T) {
	eng := sim.NewEngine(1)
	p := Params{
		Seek: 6 * sim.Millisecond, Rot: 4 * sim.Millisecond, PerPage: 100 * sim.Microsecond,
		MinSeek: 1 * sim.Millisecond, NearSlots: 512, NearPenalty: 1 * sim.Millisecond,
		StrokeSlots: 1 << 20,
	}
	d := New(eng, p)
	// Establish head position at 1000.
	var svcs []sim.Duration
	rec := func(s sim.Duration) { svcs = append(svcs, s) }
	d.Submit(&Request{Run: Run{Start: 999, N: 1}, Done: rec})
	// Near hop (distance 100 <= 512): NearPenalty only.
	d.Submit(&Request{Run: Run{Start: 1100, N: 1}, Done: rec})
	// Mid-distance hop: between MinSeek+Rot and Seek+Rot.
	d.Submit(&Request{Run: Run{Start: 1101 + 1<<19, N: 1}, Done: rec})
	// Beyond full stroke: saturates at Seek+Rot.
	d.Submit(&Request{Run: Run{Start: 1101 + 1<<19 + 1 + 1<<21, N: 1}, Done: rec})
	eng.Run()
	tr := 100 * sim.Microsecond
	if svcs[1] != 1*sim.Millisecond+tr {
		t.Fatalf("near hop = %v", svcs[1])
	}
	mid := svcs[2] - tr
	if mid <= 5*sim.Millisecond || mid >= 10*sim.Millisecond {
		t.Fatalf("mid hop = %v, want within (5ms, 10ms)", mid)
	}
	if svcs[3] != 6*sim.Millisecond+4*sim.Millisecond+tr {
		t.Fatalf("full-stroke hop = %v", svcs[3])
	}
	// The positional model must still make far hops pricier than near.
	if svcs[1] >= svcs[2] || svcs[2] >= svcs[3] {
		t.Fatalf("positional ordering broken: %v", svcs)
	}
}

func TestPositionalParamsEnableModel(t *testing.T) {
	p := PositionalParams()
	if p.StrokeSlots == 0 || p.NearSlots == 0 {
		t.Fatal("PositionalParams did not enable the positional model")
	}
	// Base costs inherited from the defaults.
	if p.Seek != DefaultParams().Seek || p.PerPage != DefaultParams().PerPage {
		t.Fatal("PositionalParams drifted from defaults")
	}
}

func TestDefaultParamsAreBinaryModel(t *testing.T) {
	if DefaultParams().StrokeSlots != 0 {
		t.Fatal("default disk must use the binary seek model (see DESIGN.md calibration)")
	}
}

func TestFirstAccessAlwaysSeeks(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, testParams())
	svc := d.ServiceTime(&Request{Run: Run{Start: 0, N: 1}})
	if svc != 8*sim.Millisecond+4*sim.Millisecond+100*sim.Microsecond {
		t.Fatalf("first access = %v, want full seek", svc)
	}
}

// BenchmarkDiskRequest is one demand request through the model, from
// Submit to its completion, with the request reused as the VM reuses its
// transfer records. It allocates nothing once the engine's event pool is
// warm.
func BenchmarkDiskRequest(b *testing.B) {
	eng := sim.NewEngine(1)
	d := New(eng, DefaultParams())
	done := 0
	r := &Request{Done: func(sim.Duration) { done++ }}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Run = Run{Start: Slot(i % 100000), N: 16}
		d.Submit(r)
		eng.Run()
	}
	if done != b.N {
		b.Fatalf("%d of %d requests completed", done, b.N)
	}
}
