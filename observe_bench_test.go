// Benchmarks for the observability layer's overhead claim: a run with
// Spec.Observe nil must cost the same as before the layer existed (the
// instrumented code only pays nil checks), and the fully-enabled run shows
// what full event + metric capture costs.
package gangsched

import (
	"io"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// BenchmarkRunObsDisabled is the zero-overhead path: Observe nil, every
// instrument compiled in but inert. Compare against BenchmarkRunObsEnabled
// with benchstat; the acceptance bar is parity (within 5%) with the
// pre-observability baseline.
func BenchmarkRunObsDisabled(b *testing.B) {
	spec := observedSpec(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunObsEnabled runs the same spec with events flowing to a
// counting sink and the metrics registry live.
func BenchmarkRunObsEnabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := observedSpec(&obs.Options{
			Sinks:   []obs.Sink{obs.NewCountSink()},
			Metrics: true,
		})
		h, err := RunDetailed(spec)
		if err != nil {
			b.Fatal(err)
		}
		if h.Metrics == nil {
			b.Fatal("metrics missing")
		}
	}
}

// BenchmarkRunStored swaps the counting sink for the binary trace store:
// the same observed run, with every event delta-encoded into segment
// files. One writer stays open across iterations and seals outside the
// timer — a production run opens and fsyncs its log once per minutes-long
// run, so folding that lifecycle into this 12-event micro-run would price
// the fsync, not the emit path. `make check` gates the measured ns/op at
// no more than 10% over BenchmarkRunObsEnabled via benchjson -overhead —
// the store's encode budget on the hot emit path.
func BenchmarkRunStored(b *testing.B) {
	s, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	w, err := s.Writer("bench", store.WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	sink := store.NewSink(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := observedSpec(&obs.Options{
			Sinks:   []obs.Sink{sink},
			Metrics: true,
		})
		h, err := RunDetailed(spec)
		if err != nil {
			b.Fatal(err)
		}
		if h.Metrics == nil {
			b.Fatal("metrics missing")
		}
	}
	b.StopTimer()
	if err := sink.Close(); err != nil {
		b.Fatal(err)
	}
	if sink.Events() == 0 {
		b.Fatal("no events stored")
	}
}

// BenchmarkRunTraced additionally turns on the span tracer and the rank
// attribution ledgers. `make check` gates its ns/op at no more than 10%
// over BenchmarkRunObsEnabled via benchjson -overhead — the tracing
// subsystem's cost ceiling.
func BenchmarkRunTraced(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := observedSpec(&obs.Options{
			Sinks:   []obs.Sink{obs.NewCountSink()},
			Metrics: true,
			Trace:   true,
			Ledger:  true,
		})
		h, err := RunDetailed(spec)
		if err != nil {
			b.Fatal(err)
		}
		if h.SpanCount() == 0 {
			b.Fatal("spans missing")
		}
	}
}

// BenchmarkWriteProm prices one Prometheus exposition of an observed
// 16-node run's registry. The counters and gauges are views that read
// the model's totals here, so this is what the metrics cost a reader.
func BenchmarkWriteProm(b *testing.B) {
	h, err := RunDetailed(Spec{
		Nodes:    16,
		MemoryMB: 6,
		Policy:   "so/ao/ai/bg",
		Quantum:  200 * time.Millisecond,
		Seed:     7,
		Observe:  &obs.Options{Metrics: true},
		Jobs: []JobSpec{
			{Name: "a", Workload: parallelJob(900, 10), HintWorkingSet: true},
			{Name: "b", Workload: parallelJob(900, 10), HintWorkingSet: true},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Metrics.WriteProm(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
