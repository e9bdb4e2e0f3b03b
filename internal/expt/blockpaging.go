package expt

import (
	"repro/internal/core"
	"repro/internal/gang"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// BlockPagingRow is one paging scheme's outcome in the block-paging study.
type BlockPagingRow struct {
	Scheme    string
	TimeSec   float64
	Overhead  float64
	Reduction float64 // vs the original policy
}

// BlockPagingStudy compares the paper's gang-aware adaptive paging against
// classic *blind* block paging (VM/HPO-style: big read-ahead clusters and
// block page-out, but no knowledge of the gang schedule). The paper's §5
// notes that block paging was never evaluated for parallel scientific
// workloads; this study shows that block transfers alone recover part of
// the win, and the gang-awareness (selective victims + exact prefetch)
// accounts for the rest.
func BlockPagingStudy(cfg Config) ([]BlockPagingRow, error) {
	cfg.fillDefaults()
	m := workload.MustGet(workload.LU, workload.ClassB, 1)
	// Blind block paging is the original policy with 128-page read-ahead
	// clusters and 128-page page-out clusters.
	blind := cfg.pair(m, core.Orig, gang.Gang)
	blind.node.VM.ReadAhead, blind.node.VM.ClusterOut = 128, 128
	cmp := cfg.compared(m)
	specs := []runSpec{cmp[0], cmp[1], blind, cmp[2]}
	for i, name := range []string{"batch", "orig", "block", "adaptive"} {
		specs[i].study, specs[i].label = "block-paging", name
	}
	results, err := cfg.runAll(specs)
	if err != nil {
		return nil, err
	}
	batch, orig, block, adaptive := results[0], results[1], results[2], results[3]

	row := func(name string, res metrics.RunResult) BlockPagingRow {
		return BlockPagingRow{
			Scheme:    name,
			TimeSec:   res.Makespan.Seconds(),
			Overhead:  metrics.SwitchingOverhead(res.Makespan, batch.Makespan),
			Reduction: metrics.PagingReduction(orig.Makespan, res.Makespan, batch.Makespan),
		}
	}
	return []BlockPagingRow{
		{Scheme: "batch", TimeSec: batch.Makespan.Seconds()},
		row("orig (16-page read-ahead)", orig),
		row("blind block paging (128/128)", block),
		row("gang-aware so/ao/ai/bg", adaptive),
	}, nil
}
