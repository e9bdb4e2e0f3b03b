package gangsched

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// storeGoldenVariants is the §4.3 policy-matrix test surface for the binary
// trace store: each spec shape the equivalence suite exercises — plain,
// audited at the tightest cadence, and under the full fault matrix — must
// produce a store whose dump is byte-identical to the JSONL sink riding the
// same bus.
func storeGoldenVariants(policy string) map[string]Spec {
	plain := fourNodeSpec(policy)

	audited := fourNodeSpec(policy)
	audited.Audit = &AuditSpec{Every: 1}

	faulted := fourNodeSpec(policy)
	faulted.Seed = 7
	faulted.Faults = &FaultsSpec{
		DiskErrRate:  0.01,
		DiskSlowRate: 0.02,
		SlowLatency:  2 * time.Millisecond,
		Stragglers:   []FaultStraggler{{Node: 0, Factor: 1.3}},
		Crashes: []FaultCrash{
			{Node: 1, At: 2 * time.Second, Downtime: 500 * time.Millisecond},
			{Node: 3, At: 5 * time.Second, Downtime: time.Second},
		},
	}

	return map[string]Spec{
		"plain":   plain,
		"audited": audited,
		"faulted": faulted,
	}
}

// TestStoreGoldenEquivalence runs every policy-matrix spec with the JSONL
// sink and the binary store sink attached to the same bus, then demands
// `store dump` reproduce the JSONL log byte-for-byte — the contract that
// makes the binary store a drop-in for the JSONL data plane.
func TestStoreGoldenEquivalence(t *testing.T) {
	for _, policy := range []string{"orig", "ai", "so", "so/ao", "so/ao/bg", "so/ao/ai/bg"} {
		for variant, spec := range storeGoldenVariants(policy) {
			spec := spec
			t.Run(policy+"/"+variant, func(t *testing.T) {
				st, err := store.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				// Tight block/segment limits so even these small runs span
				// multiple blocks and at least one segment roll.
				w, err := st.Writer("run", store.WriterOptions{
					BlockEvents:  64,
					SegmentBytes: 4 << 10,
				})
				if err != nil {
					t.Fatal(err)
				}
				sink := store.NewSink(w)
				var golden bytes.Buffer
				jl := obs.NewJSONL(&golden)
				spec.Observe = &obs.Options{Sinks: []obs.Sink{jl, sink}}
				if _, err := Run(spec); err != nil {
					t.Fatal(err)
				}
				if err := jl.Close(); err != nil {
					t.Fatal(err)
				}
				if err := sink.Close(); err != nil {
					t.Fatal(err)
				}
				if golden.Len() == 0 || sink.Events() == 0 {
					t.Fatal("run emitted no events; the equivalence check is vacuous")
				}
				var dump bytes.Buffer
				if err := st.Dump("run", &dump); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dump.Bytes(), golden.Bytes()) {
					t.Errorf("store dump diverged from JSONL golden: %d vs %d bytes",
						dump.Len(), golden.Len())
				}
				stat, err := st.Stat("run")
				if err != nil {
					t.Fatal(err)
				}
				if stat.Events != sink.Events() {
					t.Errorf("stat counts %d events, sink wrote %d", stat.Events, sink.Events())
				}
			})
		}
	}
}
