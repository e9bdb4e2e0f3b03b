package expt

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gang"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/behaviour.json from this run")

// behaviourFile pins what the simulator decides for a fixed set of runs.
var behaviourFile = filepath.Join("testdata", "behaviour.json")

// behaviour is one run's pinned outcome: exact integers that a change to
// how fast the simulator runs, rather than to what it models, must leave
// alone. Events are logical events (sim.Engine.Executed); the counters are
// summed over the run's nodes.
type behaviour struct {
	Run         string `json:"run"`
	Events      uint64 `json:"events"`
	MajorFaults int64  `json:"major_faults"`
	MinorFaults int64  `json:"minor_faults"`
	PagesIn     int64  `json:"pages_in"`
	PagesOut    int64  `json:"pages_out"`
	Seeks       int64  `json:"seeks"`
	Switches    int64  `json:"switches"`
	MakespanUS  int64  `json:"makespan_us"`
	// Crashes and DiskErrors count injected faults (RunResult.Faults).
	Crashes    int64 `json:"crashes,omitempty"`
	DiskErrors int64 `json:"disk_errors,omitempty"`
}

// pinnedRun is one pinned run: a study's run and, for the fault-injected
// run, the fault plan attached between build and run.
type pinnedRun struct {
	runSpec
	faults string
}

// behaviourSpecs lists the pinned runs: the 15 experiments of Figure 7
// (batch, orig and so/ao/ai/bg for each serial class B app); a small
// scale study, 96 gangs on two nodes, which over-commits memory and pages;
// one Figure 8 row, CG class B on two machines; the two-machine row of
// Figure 9's policy ladder; and the serial LU pair under a disk error rate
// and a node crash.
func behaviourSpecs(c Config) []pinnedRun {
	var runs []pinnedRun
	add := func(faults string, specs ...runSpec) {
		for _, s := range specs {
			runs = append(runs, pinnedRun{s, faults})
		}
	}
	for _, app := range workload.Apps() {
		add("", c.compared(workload.MustGet(app, workload.ClassB, 1))...)
	}
	add("", c.scale(2, 96))
	add("", c.compared(workload.MustGet(workload.CG, workload.ClassB, 2))...)
	lu2 := Figure9Setups()[1].Model
	add("", c.pair(lu2, core.Orig, gang.Batch))
	for _, combo := range core.PaperCombos() {
		add("", c.pair(lu2, combo, gang.Gang))
	}
	const plan = "crash=n0@30s,downtime=2s;diskerr=0.003"
	faulted := c.pair(workload.MustGet(workload.LU, workload.ClassB, 1), core.SOAOAIBG, gang.Gang)
	faulted.label += " " + plan
	add(plan, faulted)
	return runs
}

// TestBehaviourPinned runs every pinned run through Config.build, with
// faults.Attach for the fault-injected one, and fails on any difference
// from testdata/behaviour.json. Physical engine steps are logged, not
// pinned: fast-forwarding changes them by design. With -update it
// rewrites the file instead.
func TestBehaviourPinned(t *testing.T) {
	cfg := DefaultConfig()
	specs := behaviourSpecs(cfg)
	steps := make([]uint64, len(specs))
	got, err := mapN(cfg, len(specs), func(i int) (behaviour, error) {
		s := specs[i]
		cl, err := cfg.build(s.runSpec)
		if err != nil {
			return behaviour{}, err
		}
		if s.faults != "" {
			plan, err := faults.ParsePlan(s.faults)
			if err == nil {
				_, err = faults.Attach(cl, plan, cfg.Seed)
			}
			if err != nil {
				return behaviour{}, err
			}
		}
		r, err := cfg.complete(s.runSpec, cl)
		if err != nil {
			return behaviour{}, err
		}
		steps[i] = cl.Eng.Steps()
		b := behaviour{
			Run:        s.study + " " + s.label,
			Events:     cl.Eng.Executed(),
			Switches:   r.Switches,
			MakespanUS: int64(r.Makespan),
			Crashes:    r.Faults.Crashes,
			DiskErrors: r.Faults.DiskErrors,
		}
		for _, n := range r.Nodes {
			b.MajorFaults += n.MajorFaults
			b.MinorFaults += n.MinorFaults
			b.PagesIn += n.PagesIn
			b.PagesOut += n.PagesOut
			b.Seeks += n.DiskSeeks
		}
		return b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var fig7 behaviour
	var fig7Steps uint64
	for i, b := range got[:15] {
		fig7.Events += b.Events
		fig7.MajorFaults += b.MajorFaults
		fig7.MinorFaults += b.MinorFaults
		fig7.PagesIn += b.PagesIn
		fig7.PagesOut += b.PagesOut
		fig7.Seeks += b.Seeks
		fig7.Switches += b.Switches
		fig7Steps += steps[i]
	}
	t.Logf("Figure 7 study: %+v, %d physical steps", fig7, fig7Steps)
	t.Logf("%s: %d physical steps for %d events", got[15].Run, steps[15], got[15].Events)

	if *update {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, b := range got {
			line, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.WriteFile(behaviourFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(behaviourFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []behaviour
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", behaviourFile, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, %s pins %d", len(got), behaviourFile, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("run %d changed:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
