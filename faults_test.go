package gangsched

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/obs"
)

// faultSoakSpec is the fault-injection workhorse: a three-node cluster
// under the full adaptive policy with a serial/parallel job mix, two
// node crashes, sustained disk errors and latency spikes, and one
// straggler node.
func faultSoakSpec(o *obs.Options) Spec {
	return Spec{
		Nodes:     3,
		MemoryMB:  8,
		Policy:    "so/ao/ai/bg",
		Quantum:   500 * time.Millisecond,
		Seed:      42,
		TimeLimit: 2 * time.Hour,
		Observe:   o,
		Faults: &FaultsSpec{
			DiskErrRate:  0.02,
			DiskSlowRate: 0.01,
			SlowLatency:  2 * time.Millisecond,
			Crashes: []FaultCrash{
				{Node: 1, At: 2 * time.Second, Downtime: 500 * time.Millisecond},
				{Node: 0, At: 4 * time.Second, Downtime: time.Second},
			},
			Stragglers: []FaultStraggler{{Node: 2, Factor: 1.3}},
		},
		Jobs: []JobSpec{
			{Name: "a", Workload: parallelJob(700, 30), HintWorkingSet: true},
			{Name: "b", Workload: fastJob(700, 30), HintWorkingSet: true},
			{Name: "c", Workload: parallelJob(500, 25), HintWorkingSet: true},
		},
	}
}

// TestFaultSoakDeterministic is the acceptance soak: the full fault mix
// run twice with the same seed must produce byte-identical event logs.
func TestFaultSoakDeterministic(t *testing.T) {
	runJSONL := func() []byte {
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		if _, err := RunDetailed(faultSoakSpec(&obs.Options{Sinks: []obs.Sink{sink}})); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := runJSONL(), runJSONL()
	if len(a) == 0 {
		t.Fatal("soak run emitted no events")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and fault plan produced different event logs")
	}
	events, err := obs.ReadJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	var injected, down int
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindFaultInjected:
			injected++
		case obs.KindNodeDown:
			down++
		}
	}
	if injected == 0 || down == 0 {
		t.Fatalf("fault plan left no trace: %d FaultInjected, %d NodeDown", injected, down)
	}
}

// TestFaultLiveness checks graceful degradation: under crashes, disk
// errors and stragglers every job still completes, and the recovery
// machinery's books balance — every NodeDown has its NodeUp, every
// injected disk error its retry, every crash its requeue.
func TestFaultLiveness(t *testing.T) {
	h, err := RunDetailed(faultSoakSpec(&obs.Options{KeepEvents: true, Metrics: true}))
	if err != nil {
		t.Fatal(err) // a wedged job or timeout is a liveness failure
	}
	res := h.Result
	for _, j := range res.Jobs {
		if !j.Done {
			t.Errorf("job %s did not complete (%d/%d iterations)", j.Name, j.Iterations, j.TotalIters)
		}
	}
	if res.Interrupted {
		t.Error("uncancelled run reported Interrupted")
	}

	counts := map[obs.Kind]int64{}
	faultsByClass := map[string]int64{}
	for _, ev := range h.Events {
		counts[ev.Kind]++
		if ev.Kind == obs.KindFaultInjected {
			faultsByClass[ev.Fault]++
		}
	}
	if counts[obs.KindNodeDown] == 0 {
		t.Fatal("no NodeDown events — crashes did not fire")
	}
	if counts[obs.KindNodeDown] != counts[obs.KindNodeUp] {
		t.Errorf("NodeDown (%d) and NodeUp (%d) events unmatched",
			counts[obs.KindNodeDown], counts[obs.KindNodeUp])
	}
	if faultsByClass["diskerr"] == 0 {
		t.Fatal("no disk errors injected at rate 0.02")
	}
	if faultsByClass["diskerr"] != counts[obs.KindDiskRetry] {
		t.Errorf("injected disk errors (%d) and DiskRetry events (%d) unmatched",
			faultsByClass["diskerr"], counts[obs.KindDiskRetry])
	}
	if faultsByClass["straggler"] != 1 {
		t.Errorf("straggler events = %d, want 1", faultsByClass["straggler"])
	}

	// The collected tallies must agree with the event stream.
	f := res.Faults
	if f.Crashes != counts[obs.KindNodeDown] || f.Restarts != counts[obs.KindNodeUp] {
		t.Errorf("tally crashes/restarts = %d/%d, events say %d/%d",
			f.Crashes, f.Restarts, counts[obs.KindNodeDown], counts[obs.KindNodeUp])
	}
	if f.Crashes != f.Restarts {
		t.Errorf("crashes (%d) and restarts (%d) unmatched", f.Crashes, f.Restarts)
	}
	if f.Requeues != counts[obs.KindJobRequeued] {
		t.Errorf("tally requeues = %d, events say %d", f.Requeues, counts[obs.KindJobRequeued])
	}
	if f.DiskErrors != f.DiskRetries {
		t.Errorf("disk errors (%d) and retries (%d) unmatched", f.DiskErrors, f.DiskRetries)
	}
	if f.DiskErrors != faultsByClass["diskerr"] {
		t.Errorf("tally disk errors = %d, events say %d", f.DiskErrors, faultsByClass["diskerr"])
	}

	// And with the metrics registry.
	reqs := h.Metrics.Counter(obs.MetricJobRequeues, "", nil).Value()
	if reqs != float64(f.Requeues) {
		t.Errorf("requeue counter = %v, tally = %d", reqs, f.Requeues)
	}
}

// TestCrashResumeFinishDuringSwitch pins a crash-resume handover: after
// node 2's restart, starting job b's last unfinished rank inside the switch
// completes it on the spot, and the completion hands the cluster to job a
// from within that switch. The outer switch must then stop touching b,
// whose processes are gone: going on to the next node's member panics with
// "vm: no process 2". The audited run, with a full sweep at every event,
// must agree with the plain run byte for byte.
func TestCrashResumeFinishDuringSwitch(t *testing.T) {
	build := func(audit *AuditSpec) Spec {
		return Spec{
			Seed:      -87,
			Nodes:     3,
			MemoryMB:  5,
			Policy:    "so",
			Quantum:   280 * time.Millisecond,
			TimeLimit: 10 * time.Minute,
			Audit:     audit,
			Faults: &FaultsSpec{
				DiskErrRate:  0.01,
				DiskSlowRate: 0.02,
				Crashes:      []FaultCrash{{Node: 2, At: 5 * time.Second, Downtime: 2 * time.Second}},
			},
			Jobs: []JobSpec{
				{Name: "a", Workload: parallelJob(1065, 11), HintWorkingSet: true},
				{Name: "b", Workload: fastJob(795, 11), HintWorkingSet: true},
			},
		}
	}
	run := func(audit *AuditSpec) Result {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("run panicked: %v", r)
			}
		}()
		res, err := Run(build(audit))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	for _, j := range plain.Jobs {
		if !j.Done {
			t.Errorf("job %s did not complete (%d/%d iterations)", j.Name, j.Iterations, j.TotalIters)
		}
	}
	if plain.Faults.Crashes != 1 || plain.Faults.Restarts != 1 {
		t.Fatalf("crashes/restarts = %d/%d, want 1/1", plain.Faults.Crashes, plain.Faults.Restarts)
	}
	if a, b := resultJSON(t, plain), resultJSON(t, run(&AuditSpec{Every: 1, CrossEvery: 1})); a != b {
		t.Errorf("audited result diverged\nplain:   %s\naudited: %s", a, b)
	}
}

// TestNilFaultPlanIsInert verifies the zero-change guarantee: a nil (or
// empty) fault plan must leave the event log byte-identical to a run
// without the field at all — the injector consumes no model entropy.
func TestNilFaultPlanIsInert(t *testing.T) {
	runJSONL := func(f *FaultsSpec) []byte {
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		spec := observedSpec(&obs.Options{Sinks: []obs.Sink{sink}})
		spec.Faults = f
		if _, err := RunDetailed(spec); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	bare := runJSONL(nil)
	empty := runJSONL(&FaultsSpec{})
	if len(bare) == 0 {
		t.Fatal("empty event log")
	}
	if !bytes.Equal(bare, empty) {
		t.Fatal("empty fault plan perturbed the run")
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first step: maximally partial result
	res, err := RunContext(ctx, observedSpec(nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Interrupted {
		t.Fatal("cancelled run did not set Interrupted")
	}
	for _, j := range res.Jobs {
		if j.Done {
			t.Errorf("job %s done on a run cancelled at t=0", j.Name)
		}
	}
}

func TestTimeLimitTyped(t *testing.T) {
	spec := observedSpec(nil)
	spec.TimeLimit = 100 * time.Millisecond // far too short
	_, err := Run(spec)
	if err == nil {
		t.Fatal("100ms limit produced no error")
	}
	if !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("err %v does not match ErrTimeLimit", err)
	}
	var tl *TimeLimitError
	if !errors.As(err, &tl) {
		t.Fatalf("err %T is not a *TimeLimitError", err)
	}
	if len(tl.Progress) != len(spec.Jobs) {
		t.Fatalf("progress covers %d jobs, want %d", len(tl.Progress), len(spec.Jobs))
	}
	unfinished := 0
	for _, p := range tl.Progress {
		if !p.Done {
			unfinished++
			if p.TotalIters == 0 || p.Iterations >= p.TotalIters {
				t.Errorf("nonsense progress for %s: %d/%d", p.Job, p.Iterations, p.TotalIters)
			}
		}
	}
	if unfinished == 0 {
		t.Fatal("time-limit error with every job finished")
	}
}

func TestSpecValidateRejects(t *testing.T) {
	good := observedSpec(nil)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Spec){
		"negative nodes":      func(s *Spec) { s.Nodes = -1 },
		"negative quantum":    func(s *Spec) { s.Quantum = -time.Second },
		"negative limit":      func(s *Spec) { s.TimeLimit = -time.Second },
		"bad policy":          func(s *Spec) { s.Policy = "so/yolo" },
		"locked >= memory":    func(s *Spec) { s.LockedMB = s.MemoryMB },
		"negative memory":     func(s *Spec) { s.MemoryMB = -5 },
		"bgfrac out of range": func(s *Spec) { s.BGWriteFraction = 1 },
		"unnamed job":         func(s *Spec) { s.Jobs[0].Name = "" },
		"bad workload":        func(s *Spec) { s.Jobs[0].Workload.Iterations = 0 },
		"fault node range":    func(s *Spec) { s.Faults = &FaultsSpec{Stragglers: []FaultStraggler{{Node: 9, Factor: 2}}} },
		"fault bad rate":      func(s *Spec) { s.Faults = &FaultsSpec{DiskErrRate: 1.5} },
		"negative watermark":  func(s *Spec) { s.FreeMinPages = -1 },
		"min equals high":     func(s *Spec) { s.FreeMinPages = 64; s.FreeHighPages = 64 },
		"min above high":      func(s *Spec) { s.FreeMinPages = 96; s.FreeHighPages = 64 },
		"high above memory":   func(s *Spec) { s.FreeHighPages = mem.PagesFromMB(s.MemoryMB) + 1 },
		"negative clusterOut": func(s *Spec) { s.ClusterOut = -4 },
		"zero-page job":       func(s *Spec) { s.Jobs[0].Workload.FootprintPages = 0 },
		"negative audit every": func(s *Spec) {
			s.Audit = &AuditSpec{Every: -1}
		},
	} {
		s := observedSpec(nil)
		s.Jobs = append([]JobSpec(nil), s.Jobs...)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := Run(s); err == nil {
			t.Errorf("%s: Run accepted", name)
		}
	}
}

func TestTryNPB(t *testing.T) {
	beh, avail, err := TryNPB(LU, ClassB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if beh.FootprintPages == 0 || avail == 0 {
		t.Fatalf("empty model: %+v avail %d", beh, avail)
	}
	wantBeh, wantAvail := NPB(LU, ClassB, 1)
	if beh.FootprintPages != wantBeh.FootprintPages || avail != wantAvail {
		t.Fatal("TryNPB disagrees with NPB")
	}
	if _, _, err := TryNPB(LU, ClassB, 3); err == nil {
		t.Fatal("unmodelled rank count accepted")
	}
}

func TestParseFaultsRoundTrip(t *testing.T) {
	f, err := ParseFaults("crash=n1@12m,downtime=2m;diskerr=0.001;slow=n2x1.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Crashes) != 1 || f.Crashes[0].At != 12*time.Minute || f.Crashes[0].Downtime != 2*time.Minute {
		t.Fatalf("crashes = %+v", f.Crashes)
	}
	if f.DiskErrRate != 0.001 || len(f.Stragglers) != 1 {
		t.Fatalf("parsed spec = %+v", f)
	}
	if _, err := ParseFaults("crash=later"); err == nil {
		t.Fatal("bad plan accepted")
	}
}
