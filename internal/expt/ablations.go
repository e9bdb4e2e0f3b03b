package expt

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gang"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SweepPoint is one (x, completion) sample of a parameter sweep.
type SweepPoint struct {
	X             float64
	CompletionSec float64
	Overhead      float64
}

// sweepPoints reports each x's run against the batch run: the results
// hold batch first, then one run per x.
func sweepPoints(xs []float64, results []metrics.RunResult) []SweepPoint {
	batch := results[0]
	out := make([]SweepPoint, len(xs))
	for i, x := range xs {
		run := results[i+1]
		out[i] = SweepPoint{
			X:             x,
			CompletionSec: run.Makespan.Seconds(),
			Overhead:      metrics.SwitchingOverhead(run.Makespan, batch.Makespan),
		}
	}
	return out
}

// BGFractionSweep varies the fraction of the quantum given to the
// background writer (§3.4 claims the last ~10% is best) on serial LU with
// so/ao/bg.
func BGFractionSweep(cfg Config, fractions []float64) ([]SweepPoint, error) {
	cfg.fillDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0.02, 0.05, 0.10, 0.20, 0.40, 0.70}
	}
	m := workload.MustGet(workload.LU, workload.ClassB, 1)
	// The batch baseline comes first, then one run per fraction. All are
	// independent, so the whole sweep fans out at once.
	specs := []runSpec{cfg.pair(m, core.Orig, gang.Batch)}
	for _, f := range fractions {
		s := cfg.pair(m, core.SOAOBG, gang.Gang)
		s.study, s.label = "bg-fraction sweep", fmt.Sprintf("%g", f)
		s.sched.BGWriteFraction = f
		specs = append(specs, s)
	}
	results, err := cfg.runAll(specs)
	if err != nil {
		return nil, err
	}
	return sweepPoints(fractions, results), nil
}

// ReadAheadSweep varies the kernel read-ahead group size under the
// original policy (§3.3: the Linux 2.2 default is 16; larger helps at job
// switches but only adaptive page-in reads exactly the needed set).
func ReadAheadSweep(cfg Config, sizes []int) ([]SweepPoint, error) {
	cfg.fillDefaults()
	if len(sizes) == 0 {
		sizes = []int{4, 16, 64, 256, 1024}
	}
	m := workload.MustGet(workload.LU, workload.ClassB, 1)
	specs := []runSpec{cfg.pair(m, core.Orig, gang.Batch)}
	xs := make([]float64, len(sizes))
	for i, ra := range sizes {
		s := cfg.pair(m, core.Orig, gang.Gang)
		s.study, s.label = "read-ahead sweep", fmt.Sprintf("ra=%d", ra)
		s.node.VM.ReadAhead = ra
		specs = append(specs, s)
		xs[i] = float64(ra)
	}
	results, err := cfg.runAll(specs)
	if err != nil {
		return nil, err
	}
	return sweepPoints(xs, results), nil
}

// QuantumSweep reproduces the Wang et al. trade-off the paper discusses in
// §5: longer quanta amortise switching overhead at the cost of response
// time. Run on serial LU with the original policy.
func QuantumSweep(cfg Config, quanta []sim.Duration) ([]SweepPoint, error) {
	cfg.fillDefaults()
	if len(quanta) == 0 {
		quanta = []sim.Duration{
			1 * sim.Minute, 2 * sim.Minute, 5 * sim.Minute, 10 * sim.Minute, 20 * sim.Minute,
		}
	}
	m := workload.MustGet(workload.LU, workload.ClassB, 1)
	specs := []runSpec{cfg.pair(m, core.Orig, gang.Batch)}
	xs := make([]float64, len(quanta))
	for i, q := range quanta {
		c := cfg
		c.Quantum = q
		s := c.pair(m, core.Orig, gang.Gang)
		s.study, s.label = "quantum sweep", q.String()
		specs = append(specs, s)
		xs[i] = q.Seconds()
	}
	results, err := cfg.runAll(specs)
	if err != nil {
		return nil, err
	}
	return sweepPoints(xs, results), nil
}

// MemoryPressureResult reports the Moreira et al. motivation experiment.
type MemoryPressureResult struct {
	SmallMemSec float64 // three jobs on the 128 MB machine
	LargeMemSec float64 // three jobs on the 256 MB machine
	Slowdown    float64 // paper reports ~3.5x
}

// MemoryPressure reproduces the §1 anecdote: three instances of a job with
// a 45 MB footprint gang-scheduled on a 128 MB versus a 256 MB machine.
func MemoryPressure(cfg Config) (MemoryPressureResult, error) {
	cfg.fillDefaults()
	beh := workload.Model{
		App: "JOB", Class: "-", Ranks: 1,
		FootprintMB: 45, Iterations: 400,
		TouchCost: 60 * sim.Microsecond, DirtyFrac: 0.7,
	}.Behavior()
	var specs []runSpec
	for _, memMB := range []int{128, 256} {
		s := runSpec{
			study: "memory pressure", label: fmt.Sprintf("%d MB", memMB),
			nodes: 1, node: cluster.DefaultNodeConfig(), features: core.Orig,
			sched: gang.Options{BGWriteFraction: cfg.BGWriteFraction},
		}
		s.node.MemoryMB = memMB
		// AIX plus system daemons claim a share of the machine; only the
		// rest is available to the three jobs. This is what makes 3 x 45 MB
		// over-commit the 128 MB machine but fit the 256 MB one.
		s.node.LockedMB = memMB / 5
		for i := 1; i <= 3; i++ {
			s.jobs = append(s.jobs, cluster.JobSpec{
				Name:     fmt.Sprintf("job-%d", i),
				Behavior: beh,
				Quantum:  30 * sim.Second,
			})
		}
		specs = append(specs, s)
	}
	results, err := cfg.runAll(specs)
	if err != nil {
		return MemoryPressureResult{}, err
	}
	small, large := results[0].Makespan, results[1].Makespan
	return MemoryPressureResult{
		SmallMemSec: small.Seconds(),
		LargeMemSec: large.Seconds(),
		Slowdown:    float64(small) / float64(large),
	}, nil
}

// FormatSweep renders sweep points.
func FormatSweep(title, xName string, rows []SweepPoint) string {
	s := title + "\n" + fmt.Sprintf("%12s %10s %9s\n", xName, "time_s", "overhead")
	for _, r := range rows {
		s += fmt.Sprintf("%12g %10.0f %9s\n", r.X, r.CompletionSec, metrics.Pct(r.Overhead))
	}
	return s
}
