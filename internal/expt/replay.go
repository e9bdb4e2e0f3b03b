package expt

import (
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// ReplayTrace rebuilds node's paging-activity series from a stored run's
// event history: the run's DiskTransfer events go through the same
// trace.Paging fold a live run attaches to its bus. The scan is a bounded
// range query: the store's block index prunes on the node bitmap, so only
// covering blocks are decoded. The result's Node(node) holds the series.
func ReplayTrace(st *store.Store, run string, node int, bin sim.Duration) (*trace.Paging, error) {
	paging := trace.NewPaging(0, bin)
	err := st.Scan(store.Query{Run: run, Node: &node}, paging.Observe)
	return replayed(paging, node, fmt.Sprintf("run %q", run), err)
}

// ReplayTraceSegment is ReplayTrace over a single loose segment file.
func ReplayTraceSegment(path string, node int, bin sim.Duration) (*trace.Paging, error) {
	paging := trace.NewPaging(0, bin)
	err := store.ScanSegmentFile(path, store.Query{Node: &node}, paging.Observe)
	return replayed(paging, node, path, err)
}

// ReplayTraceJSONL is ReplayTrace over a JSONL event log, streamed.
func ReplayTraceJSONL(r io.Reader, node int, bin sim.Duration) (*trace.Paging, error) {
	paging := trace.NewPaging(0, bin)
	err := obs.StreamJSONL(r, paging.Observe)
	return replayed(paging, node, "stream", err)
}

// replayed finishes a replay: it fails on the scan's error, and when node
// had no DiskTransfer in source.
func replayed(paging *trace.Paging, node int, source string, err error) (*trace.Paging, error) {
	if err != nil {
		return nil, err
	}
	if paging.Transfers(node) == 0 {
		return nil, fmt.Errorf("expt: no DiskTransfer events for node %d in %s", node, source)
	}
	return paging, nil
}
