package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/gang"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// ScalingResult is one node-count sample of the cluster scaling study.
type ScalingResult struct {
	Ranks       int
	BatchSec    float64
	OrigSec     float64
	AdaptiveSec float64
	Reduction   float64
}

// ScalingStudy runs the paper's announced future work: the LU benchmark
// gang-scheduled across growing clusters (1, 2, 4, 8, 16 nodes). Per-node
// footprints shrink with the node count, so the study shows where paging —
// and the adaptive mechanisms' benefit — fades out.
func ScalingStudy(cfg Config) ([]ScalingResult, error) {
	cfg.fillDefaults()
	var models []workload.Model
	for _, spec := range []struct {
		class workload.Class
		ranks int
	}{
		{workload.ClassB, 1},
		{workload.ClassC, 2},
		{workload.ClassC, 4},
		{workload.ClassC, 8},
		{workload.ClassC, 16},
	} {
		m, err := workload.Get(workload.LU, spec.class, spec.ranks)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	rows, err := cfg.compareAll(models)
	if err != nil {
		return nil, err
	}
	out := make([]ScalingResult, len(rows))
	for i, r := range rows {
		out[i] = ScalingResult{
			Ranks:       models[i].Ranks,
			BatchSec:    r.BatchSec,
			OrigSec:     r.OrigSec,
			AdaptiveSec: r.AdaptiveSec,
			Reduction:   r.Reduction,
		}
	}
	return out, nil
}

// WSHintSweep varies the working-set size the gang scheduler passes through
// the kernel API, as a multiple of the true working set. 0 means "let the
// kernel estimate from the previous quantum". Under-hinting starves the
// aggressive page-out; over-hinting evicts more of the outgoing process
// than necessary.
func WSHintSweep(cfg Config, fractions []float64) ([]SweepPoint, error) {
	cfg.fillDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0, 0.25, 0.5, 1.0, 1.5, 2.0}
	}
	m := workload.MustGet(workload.LU, workload.ClassB, 1)
	trueWS := m.Behavior().WorkingSetPages()
	results, err := mapN(cfg, 1+len(fractions), func(i int) (metrics.RunResult, error) {
		if i == 0 {
			return cfg.RunPair(m, core.Orig, gang.Batch)
		}
		f := fractions[i-1]
		s := cfg.pair(m, core.SOAOAIBG, gang.Gang)
		s.study, s.label = "ws-hint sweep", fmt.Sprintf("hint=%.2f", f)
		cl, err := cfg.build(s)
		if err != nil {
			return metrics.RunResult{}, err
		}
		for _, j := range cl.Jobs() {
			j.WSHintPages = int(f * float64(trueWS))
		}
		return cfg.complete(s, cl)
	})
	if err != nil {
		return nil, err
	}
	return sweepPoints(fractions, results), nil
}

// DiskModelComparison reports one app's results under the binary seek
// model (DefaultParams) versus the positional model (PositionalParams) —
// an ablation of the disk-model choice DESIGN.md documents.
type DiskModelComparison struct {
	Model     string
	OrigSec   float64
	AdaptSec  float64
	Reduction float64
}

// DiskModelAblation reruns the serial LU comparison under both disk
// models. The adaptive mechanisms' advantage shrinks under the positional
// model because near-sequential demand paging gets cheap seeks.
func DiskModelAblation(cfg Config) ([]DiskModelComparison, error) {
	cfg.fillDefaults()
	m := workload.MustGet(workload.LU, workload.ClassB, 1)
	modes := []string{"binary", "positional"}
	var specs []runSpec
	for _, mode := range modes {
		for _, s := range cfg.compared(m) {
			s.study = mode + " disk model"
			if mode == "positional" {
				s.node.Disk = disk.PositionalParams()
			}
			specs = append(specs, s)
		}
	}
	results, err := cfg.runAll(specs)
	if err != nil {
		return nil, err
	}
	var out []DiskModelComparison
	for i, mode := range modes {
		batch := results[3*i].Makespan.Seconds()
		orig := results[3*i+1].Makespan.Seconds()
		adpt := results[3*i+2].Makespan.Seconds()
		red := 0.0
		if orig > batch {
			red = 1 - (adpt-batch)/(orig-batch)
		}
		out = append(out, DiskModelComparison{
			Model: mode, OrigSec: orig, AdaptSec: adpt, Reduction: red,
		})
	}
	return out, nil
}
