package gangsched

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/expt"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// TestReplayMatchesLiveTraces runs a traced four-node spec with a JSONL
// sink and a store sink on its bus, then rebuilds every node's paging
// series from the JSONL log, from the run's loose segment file and from
// the store. Each replay must render the live recorder's CSV byte for
// byte: the paging series are a pure function of the DiskTransfer events.
func TestReplayMatchesLiveTraces(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.Writer("run", store.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sink := store.NewSink(w)
	var log bytes.Buffer
	jl := obs.NewJSONL(&log)
	spec := fourNodeSpec("so/ao/ai/bg")
	spec.RecordTraces = true
	spec.Observe = &obs.Options{Sinks: []obs.Sink{jl, sink}}
	h, err := RunDetailed(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "run", "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment file for the run, got %v (%v)", segs, err)
	}
	if len(h.Traces) != spec.Nodes {
		t.Fatalf("%d live recorders for %d nodes", len(h.Traces), spec.Nodes)
	}
	for node, live := range h.Traces {
		if live.Series("pagein_kb").Total() == 0 || live.Series("pageout_kb").Total() == 0 {
			t.Fatalf("node %d recorded no paging; the comparison is vacuous", node)
		}
		want := live.CSV()
		fromJSONL, err := expt.ReplayTraceJSONL(bytes.NewReader(log.Bytes()), node, sim.Second)
		if err != nil {
			t.Fatalf("node %d: JSONL replay: %v", node, err)
		}
		fromSegment, err := expt.ReplayTraceSegment(segs[0], node, sim.Second)
		if err != nil {
			t.Fatalf("node %d: segment replay: %v", node, err)
		}
		fromStore, err := expt.ReplayTrace(st, "run", node, sim.Second)
		if err != nil {
			t.Fatalf("node %d: store replay: %v", node, err)
		}
		for src, rep := range map[string]*trace.Paging{
			"jsonl": fromJSONL, "segment": fromSegment, "store": fromStore,
		} {
			if got := rep.Node(node).CSV(); got != want {
				t.Errorf("node %d: %s replay CSV differs from the live recorder's\nlive:\n%.300s\nreplay:\n%.300s",
					node, src, want, got)
			}
		}
	}
}
