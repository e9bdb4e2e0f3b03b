package expt

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gang"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The experiment tests run the real paper-scale simulations, so they are
// seconds each; the slowest are skipped under -short.

func TestRunPairBasics(t *testing.T) {
	cfg := DefaultConfig()
	m := workload.MustGet(workload.LU, workload.ClassB, 1)
	res, err := cfg.RunPair(m, core.Orig, gang.Batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "batch" || res.Mode != "batch" {
		t.Fatalf("labels: %+v", res)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	if res.Switches != 0 {
		t.Fatal("batch made switches")
	}
}

// TestPairDescribesThePaperExperiment pins what the paper's pair fixes:
// the job names, the wired memory, the working-set hint and the quantum
// workload.Model.Quantum gives the model.
func TestPairDescribesThePaperExperiment(t *testing.T) {
	cfg := DefaultConfig()
	sp4 := workload.MustGet(workload.SP, workload.ClassC, 4)
	s := cfg.pair(sp4, core.SOAOAIBG, gang.Gang)
	if s.nodes != 4 || s.node.MemoryMB-s.node.LockedMB != sp4.AvailMB || s.label != "so/ao/ai/bg" {
		t.Fatalf("SP@4 pair: %d nodes, %d MB of %d wired, label %q",
			s.nodes, s.node.LockedMB, s.node.MemoryMB, s.label)
	}
	if len(s.jobs) != 2 {
		t.Fatalf("SP@4 pair has %d jobs", len(s.jobs))
	}
	for i, j := range s.jobs {
		if want := fmt.Sprintf("SP-%d", i+1); j.Name != want || !j.PassWSHint || j.Quantum != 7*sim.Minute {
			t.Fatalf("job %d = %s, hint %v, quantum %v; want %s, hint, 7m", i, j.Name, j.PassWSHint, j.Quantum, want)
		}
	}
	if s := cfg.pair(sp4, core.Orig, gang.Batch); s.label != "batch" || s.sched.Mode != gang.Batch {
		t.Fatalf("batch pair: label %q, mode %v", s.label, s.sched.Mode)
	}
}

func TestFigure7ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second paper-scale run")
	}
	rows, err := Figure7(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byApp := map[workload.App]AppResult{}
	for _, r := range rows {
		byApp[r.App] = r
		// Adaptive paging must beat the original policy for every app.
		if r.AdaptiveSec >= r.OrigSec {
			t.Errorf("%s: adaptive %v >= orig %v", r.App, r.AdaptiveSec, r.OrigSec)
		}
		// Both gang runs cost more than batch under over-commit.
		if r.OrigOverhead <= 0 {
			t.Errorf("%s: no switching overhead", r.App)
		}
		if r.AdaptiveOverhead >= r.OrigOverhead {
			t.Errorf("%s: overheads inverted", r.App)
		}
	}
	// IS shows the smallest reduction (paper: 19%, far below the others)
	// and CG the second smallest (paper: 68%).
	for _, app := range []workload.App{workload.LU, workload.SP, workload.CG, workload.MG} {
		if byApp[workload.IS].Reduction >= byApp[app].Reduction {
			t.Errorf("IS reduction %.2f not below %s's %.2f",
				byApp[workload.IS].Reduction, app, byApp[app].Reduction)
		}
	}
	for _, app := range []workload.App{workload.LU, workload.SP, workload.MG} {
		if byApp[workload.CG].Reduction >= byApp[app].Reduction {
			t.Errorf("CG reduction %.2f not below %s's %.2f",
				byApp[workload.CG].Reduction, app, byApp[app].Reduction)
		}
	}
}

func TestFigure8CGFourMachinesBarelyPages(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second paper-scale run")
	}
	// Paper §4.2: on four machines CG's per-rank memory shrinks so much
	// that "even with memory locking paging does not occur".
	cfg := DefaultConfig()
	m := workload.MustGet(workload.CG, workload.ClassB, 4)
	orig, err := cfg.RunPair(m, core.Orig, gang.Gang)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := cfg.RunPair(m, core.Orig, gang.Batch)
	if err != nil {
		t.Fatal(err)
	}
	over := float64(orig.Makespan-batch.Makespan) / float64(orig.Makespan)
	if over > 0.05 {
		t.Fatalf("CG@4 switching overhead %.1f%%, want ~0", 100*over)
	}
}

func TestFigure8Models(t *testing.T) {
	two, err := Figure8Models(2)
	if err != nil || len(two) != 4 {
		t.Fatalf("2-machine models: %v, %v", two, err)
	}
	four, err := Figure8Models(4)
	if err != nil || len(four) != 4 {
		t.Fatalf("4-machine models: %v, %v", four, err)
	}
	// SP only on 4 machines, MG only on 2, per the paper.
	for _, m := range two {
		if m.App == workload.SP {
			t.Error("SP must not run on 2 machines (does not compile, §4.2)")
		}
	}
	for _, m := range four {
		if m.App == workload.MG {
			t.Error("MG must not run on 4 machines (memory unsuitable, §4.2)")
		}
	}
	if _, err := Figure8Models(3); err == nil {
		t.Fatal("3 machines accepted")
	}
}

func TestFigure6Compaction(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second paper-scale run")
	}
	rows, err := Figure6(DefaultConfig(), 25*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("traces = %d", len(rows))
	}
	orig, full := rows[0], rows[3]
	if orig.Policy != "orig" || full.Policy != "so/ao/ai/bg" {
		t.Fatalf("order: %s ... %s", orig.Policy, full.Policy)
	}
	// Compaction: adaptive paging concentrates the same paging into fewer
	// active seconds with higher peaks.
	if full.ActiveSeconds >= orig.ActiveSeconds {
		t.Errorf("no compaction: %d vs %d active seconds", full.ActiveSeconds, orig.ActiveSeconds)
	}
	if full.PeakKBps <= orig.PeakKBps {
		t.Errorf("no intensification: peaks %v vs %v", full.PeakKBps, orig.PeakKBps)
	}
	for _, r := range rows {
		if len(r.Nodes) != 4 {
			t.Fatalf("%s: %d node traces", r.Policy, len(r.Nodes))
		}
	}
}

func TestFigure9FullComboWinsEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("long paper-scale run")
	}
	rows, err := Figure9(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, setup := range []string{"serial", "2 machines", "4 machines"} {
		prs := rows[setup]
		if len(prs) != 7 { // batch + 6 combos
			t.Fatalf("%s: %d rows", setup, len(prs))
		}
		var orig, full PolicyResult
		for _, r := range prs {
			switch r.Policy {
			case "orig":
				orig = r
			case "so/ao/ai/bg":
				full = r
			}
		}
		if full.CompletionSec >= orig.CompletionSec {
			t.Errorf("%s: full combo (%v) not faster than orig (%v)",
				setup, full.CompletionSec, orig.CompletionSec)
		}
		if full.Reduction <= 0 {
			t.Errorf("%s: full combo reduction %v", setup, full.Reduction)
		}
	}
}

func TestQuantumSweepAmortisesOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second paper-scale run")
	}
	rows, err := QuantumSweep(DefaultConfig(), []sim.Duration{
		2 * sim.Minute, 10 * sim.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Overhead <= rows[1].Overhead {
		t.Fatalf("longer quantum did not amortise overhead: %+v", rows)
	}
}

func TestMemoryPressureSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second paper-scale run")
	}
	res, err := MemoryPressure(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Moreira et al. report ~3.5x; any clear multi-x slowdown preserves
	// the motivation.
	if res.Slowdown < 1.5 {
		t.Fatalf("slowdown %.2fx too small", res.Slowdown)
	}
	if res.SmallMemSec <= res.LargeMemSec {
		t.Fatal("128MB machine not slower than 256MB")
	}
}

func TestFormatters(t *testing.T) {
	rows := []AppResult{{App: workload.LU, Class: workload.ClassB, BatchSec: 1,
		OrigSec: 2, AdaptiveSec: 1.5, OrigOverhead: 0.5, AdaptiveOverhead: 0.33, Reduction: 0.5}}
	s := FormatAppTable("T", rows)
	if len(s) == 0 || s[0] != 'T' {
		t.Fatalf("table: %q", s)
	}
	pt := FormatPolicyTable("P", map[string][]PolicyResult{
		"serial": {{Policy: "batch", CompletionSec: 1}, {Policy: "orig", CompletionSec: 2}},
	})
	if len(pt) == 0 {
		t.Fatal("empty policy table")
	}
	ts := FormatTraceSummary([]TraceResult{{Policy: "orig", ActiveSeconds: 3, PeakKBps: 4}})
	if len(ts) == 0 {
		t.Fatal("empty trace summary")
	}
	sw := FormatSweep("S", "x", []SweepPoint{{X: 1, CompletionSec: 2, Overhead: 0.1}})
	if len(sw) == 0 {
		t.Fatal("empty sweep")
	}
}
