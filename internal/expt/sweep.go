package expt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gang"
	"repro/internal/workload"
)

// MatrixPoint is one run of a policy-matrix sweep in submission form: the
// neutral description gangsimd's matrix endpoint expands into durable run
// jobs. It carries plain names and sizes rather than built clusters — a
// point is a pure function of its fields plus the seed, which is what
// makes queued runs re-dispatchable after a crash.
type MatrixPoint struct {
	Label    string // row label, e.g. "batch" or "so/ao/ai/bg"
	App      string
	Class    string
	Ranks    int
	Policy   string // paper notation ("orig", "so/ao/ai/bg", ...)
	Batch    bool
	MemoryMB int
	LockedMB int // wired memory forcing the paper's over-commit
	// Quantum is the gang time slice for this point as a time.Duration
	// string (the SP-on-4-machines 7-minute rule is already applied).
	Quantum string
	BGFrac  float64
	Seed    int64
}

// PolicyMatrix lays out the paper's §4.3 evaluation matrix for one model
// as submission points: the batch baseline plus every policy combination
// of the §4.3 ladder, in figure order. The serve layer expands "matrix"
// submissions through this.
func PolicyMatrix(cfg Config, m workload.Model) []MatrixPoint {
	cfg.fillDefaults()
	s := cfg.pair(m, core.Orig, gang.Batch)
	points := []MatrixPoint{{Label: "batch", Policy: core.Orig.String(), Batch: true}}
	for _, f := range core.PaperCombos() {
		points = append(points, MatrixPoint{Label: f.String(), Policy: f.String()})
	}
	for i := range points {
		points[i].App = string(m.App)
		points[i].Class = string(m.Class)
		points[i].Ranks = m.Ranks
		points[i].MemoryMB = s.node.MemoryMB
		points[i].LockedMB = s.node.LockedMB
		points[i].Quantum = s.jobs[0].Quantum.String()
		points[i].BGFrac = s.sched.BGWriteFraction
		points[i].Seed = cfg.Seed
	}
	return points
}

// MatrixFor resolves an (app, class, ranks) triple against the modelled
// workload set and returns its policy-matrix sweep, or an error for
// configurations outside the paper's set.
func MatrixFor(cfg Config, app, class string, ranks int) ([]MatrixPoint, error) {
	if ranks == 0 {
		ranks = 1
	}
	if class == "" {
		class = string(workload.ClassB)
	}
	m, err := workload.Get(workload.App(app), workload.Class(class), ranks)
	if err != nil {
		return nil, fmt.Errorf("expt: matrix sweep: %w", err)
	}
	return PolicyMatrix(cfg, m), nil
}
