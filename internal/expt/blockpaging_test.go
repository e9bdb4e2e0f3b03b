package expt

import "testing"

func TestBlockPagingStudyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second paper-scale run")
	}
	rows, err := BlockPagingStudy(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	batch, orig, block, adaptive := rows[0], rows[1], rows[2], rows[3]
	// Ordering: batch < adaptive < block < orig completion times.
	if !(batch.TimeSec < adaptive.TimeSec &&
		adaptive.TimeSec < block.TimeSec &&
		block.TimeSec < orig.TimeSec) {
		t.Fatalf("ordering broken: batch=%.0f adaptive=%.0f block=%.0f orig=%.0f",
			batch.TimeSec, adaptive.TimeSec, block.TimeSec, orig.TimeSec)
	}
	// Blind block paging recovers part of the win, gang-awareness the rest.
	if block.Reduction <= 0.1 {
		t.Errorf("block paging reduction %.2f implausibly small", block.Reduction)
	}
	if adaptive.Reduction <= block.Reduction {
		t.Errorf("gang-aware (%v) not better than blind block paging (%v)",
			adaptive.Reduction, block.Reduction)
	}
}
