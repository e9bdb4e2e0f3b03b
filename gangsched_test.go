package gangsched

import (
	"encoding/json"
	"testing"
	"time"
)

// fastJob is a compact workload for API tests: small footprint, short run.
func fastJob(pages, iters int) Behavior {
	return Behavior{
		FootprintPages: pages,
		Iterations:     iters,
		Segments:       []Segment{{Offset: 0, Pages: pages, Write: true, Passes: 1}},
		TouchCost:      50, // 50 µs per page visit
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := Run(Spec{
		Policy: "bogus",
		Jobs:   []JobSpec{{Name: "x", Workload: fastJob(10, 1)}},
	}); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestRunSingleNodePair(t *testing.T) {
	spec := Spec{
		Nodes:    1,
		MemoryMB: 8,
		Policy:   "so/ao/ai/bg",
		Quantum:  time.Second,
		Jobs: []JobSpec{
			{Name: "a", Workload: fastJob(1000, 40), HintWorkingSet: true},
			{Name: "b", Workload: fastJob(1000, 40), HintWorkingSet: true},
		},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 || res.Makespan <= 0 {
		t.Fatalf("result: %+v", res)
	}
	if res.Policy != "so/ao/ai/bg" || res.Mode != "gang" {
		t.Fatalf("labels: policy=%q mode=%q", res.Policy, res.Mode)
	}
}

func TestRunBatchMode(t *testing.T) {
	spec := Spec{
		MemoryMB: 8,
		Batch:    true,
		Jobs: []JobSpec{
			{Name: "a", Workload: fastJob(500, 5)},
			{Name: "b", Workload: fastJob(500, 5)},
		},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "batch" || res.Policy != "batch" || res.Switches != 0 {
		t.Fatalf("batch labels: %+v", res)
	}
	if res.Jobs[1].FinishedAt <= res.Jobs[0].FinishedAt {
		t.Fatal("batch order violated")
	}
}

func TestRunDetailedTraces(t *testing.T) {
	spec := Spec{
		Nodes:        2,
		MemoryMB:     6,
		Policy:       "orig",
		Quantum:      200 * time.Millisecond,
		RecordTraces: true,
		Jobs: []JobSpec{
			{Name: "a", Workload: parallelJob(900, 40)},
			{Name: "b", Workload: parallelJob(900, 40)},
		},
	}
	h, err := RunDetailed(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(h.Traces))
	}
	if h.Traces[0].Series("pagein_kb").Total() == 0 {
		t.Fatal("no paging activity recorded under over-commit")
	}
}

func parallelJob(pages, iters int) Behavior {
	b := fastJob(pages, iters)
	b.SyncEveryIter = true
	b.MsgBytes = 1024
	return b
}

// fourNodeSpec is the golden-equivalence workhorse: a 4-node cluster under
// over-commit running two synchronized parallel jobs, small enough that the
// full §4.3 policy matrix times every variant stays inside a unit-test
// budget.
func fourNodeSpec(policy string) Spec {
	return Spec{
		Seed:     1,
		Nodes:    4,
		MemoryMB: 8,
		Policy:   policy,
		Quantum:  time.Second,
		Jobs: []JobSpec{
			{Name: "a", Workload: parallelJob(1000, 40), HintWorkingSet: true},
			{Name: "b", Workload: parallelJob(1000, 40), HintWorkingSet: true},
		},
	}
}

// resultJSON renders a run result for byte-level comparison.
func resultJSON(t *testing.T, res Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestCompareReportsReduction(t *testing.T) {
	spec := Spec{
		MemoryMB: 6,
		Policy:   "so/ao/ai/bg",
		Quantum:  time.Second,
		Jobs: []JobSpec{
			{Name: "a", Workload: fastJob(1100, 80), HintWorkingSet: true},
			{Name: "b", Workload: fastJob(1100, 80), HintWorkingSet: true},
		},
	}
	cmp, err := Compare(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Orig.Makespan <= cmp.Batch.Makespan {
		t.Fatal("gang scheduling under over-commit should cost more than batch")
	}
	if cmp.Policy.Makespan >= cmp.Orig.Makespan {
		t.Fatal("adaptive paging should beat the original policy")
	}
	if cmp.PagingReduction <= 0 || cmp.PagingReduction > 1 {
		t.Fatalf("reduction = %v", cmp.PagingReduction)
	}
	if cmp.SwitchingOverheadOrig <= cmp.SwitchingOverheadPolicy {
		t.Fatal("overheads inverted")
	}
}

func TestNPBModelsAccessible(t *testing.T) {
	for _, app := range []App{LU, SP, CG, IS, MG} {
		beh, avail := NPB(app, ClassB, 1)
		if err := beh.Validate(); err != nil {
			t.Errorf("%s: %v", app, err)
		}
		if avail <= 0 || avail > 1024 {
			t.Errorf("%s: implausible avail %d MB", app, avail)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown NPB config did not panic")
		}
	}()
	NPB(MG, ClassC, 4)
}

func TestDeterministicRuns(t *testing.T) {
	spec := Spec{
		MemoryMB: 6,
		Policy:   "so/ao/ai/bg",
		Quantum:  time.Second,
		Seed:     7,
		Jobs: []JobSpec{
			{Name: "a", Workload: fastJob(1000, 30), HintWorkingSet: true},
			{Name: "b", Workload: fastJob(1000, 30), HintWorkingSet: true},
		},
	}
	r1, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan || r1.TotalPagesMoved() != r2.TotalPagesMoved() {
		t.Fatal("same seed produced different results")
	}
}
