package audit

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gang"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sim"
)

// makeCluster wires one node with two jobs whose combined footprint
// over-commits memory: 600 pages in 512 frames. Each job needs several
// 20 ms quanta, so the node switches, reclaims, writes back and prefetches
// before either finishes. The scheduler is built but not started.
func makeCluster(t testing.TB) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(1, 1, cluster.NodeConfig{MemoryMB: 2}, core.SOAOAIBG, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableAcct()
	for _, name := range []string{"a", "b"} {
		beh := proc.Behavior{
			FootprintPages: 300,
			Iterations:     40,
			Segments:       []proc.Segment{{Offset: 0, Pages: 300, Write: true, Passes: 1}},
			TouchCost:      10 * sim.Microsecond,
		}
		if _, err := c.AddJob(cluster.JobSpec{Name: name, Behavior: beh, Quantum: 20 * sim.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	c.BuildScheduler(gang.Options{})
	return c
}

// notPaging says why the node of a makeCluster run is not yet mid-paging,
// or returns "" once it is: a switch has happened, one job's rank runs and
// the other's is stopped, neither job has finished, and the disk is
// serving a transfer.
func notPaging(c *cluster.Cluster) string {
	s := c.Scheduler()
	if s.Stats().Switches == 0 {
		return "no switch yet"
	}
	running := 0
	for _, j := range s.Jobs() {
		if j.Done() {
			return fmt.Sprintf("job %s finished", j.Name)
		}
		if j.Members[0].Proc.Running() {
			running++
		}
	}
	if running != 1 {
		return fmt.Sprintf("%d of 2 ranks running", running)
	}
	if !c.Nodes[0].Disk.Busy() {
		return "no transfer in flight"
	}
	return ""
}

// stepToPaging starts the scheduler and fires events one at a time until
// the node is mid-paging (see notPaging), where each corruption test
// corrupts.
func stepToPaging(t testing.TB, c *cluster.Cluster) {
	t.Helper()
	c.Scheduler().Start()
	for notPaging(c) != "" {
		if !c.Eng.Step() {
			t.Fatalf("engine drained before the node paged: %s", notPaging(c))
		}
	}
}

// requirePaging fails the test unless the node is still mid-paging.
func requirePaging(t testing.TB, c *cluster.Cluster) {
	t.Helper()
	if why := notPaging(c); why != "" {
		t.Fatalf("node not mid-paging before the corruption: %s", why)
	}
}

// step drives the engine until it has executed n logical events (the
// cluster must have a started scheduler). Logical events are the unit the
// auditor's own cadence counts: a fast-forwarded touch window fires once
// but stands for every event it folded (DESIGN §10b).
func step(t testing.TB, c *cluster.Cluster, n int) {
	t.Helper()
	for c.Eng.Executed() < uint64(n) {
		if _, ok := c.Eng.NextEventTime(); !ok {
			t.Fatalf("engine drained after %d of %d logical events", c.Eng.Executed(), n)
		}
		c.Eng.Step()
	}
}

func TestAuditCleanRunPasses(t *testing.T) {
	c := makeCluster(t)
	a := Attach(c, Config{Every: 1})
	if err := c.Run(time10m()); err != nil {
		t.Fatalf("audited clean run failed: %v", err)
	}
	if a.Checks() == 0 {
		t.Fatal("auditor never ran")
	}
	if a.Violations() != 0 {
		t.Fatalf("violations = %d on a clean run", a.Violations())
	}
}

func time10m() sim.Duration { return 10 * sim.Minute }

// corruptions break one invariant each through exported mutators only, and
// name the violation the auditor must attribute the damage to.
func TestAuditDetectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		want    string
		corrupt func(t *testing.T, c *cluster.Cluster)
	}{
		{
			name: "frame released while still mapped",
			want: InvFrameConservation,
			corrupt: func(t *testing.T, c *cluster.Cluster) {
				c.Nodes[0].Phys.Release(1)
			},
		},
		{
			name: "leaked frame owned by a ghost process",
			want: InvFrameConservation,
			corrupt: func(t *testing.T, c *cluster.Cluster) {
				if c.Nodes[0].Phys.Take(1) == 0 {
					t.Skip("no free frame to leak")
				}
			},
		},
		{
			name: "swap slots leak past process teardown",
			want: InvSwapAccounting,
			corrupt: func(t *testing.T, c *cluster.Cluster) {
				if _, err := c.Nodes[0].Swap.Reserve(10); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "selective designation targets the running job",
			want: InvGangOutgoing,
			corrupt: func(t *testing.T, c *cluster.Cluster) {
				c.Nodes[0].VM.SetOutgoing(runningPID(t, c))
			},
		},
		{
			name: "running rank carries the stopped mark",
			want: InvGangStopped,
			corrupt: func(t *testing.T, c *cluster.Cluster) {
				c.Nodes[0].Kernel.MarkStopped(runningPID(t, c))
			},
		},
		{
			name: "two jobs running on one node",
			want: InvGangSingleRun,
			corrupt: func(t *testing.T, c *cluster.Cluster) {
				for _, j := range c.Scheduler().Jobs() {
					m := &j.Members[0]
					if !m.Proc.Running() {
						m.Proc.Start()
						return
					}
				}
				t.Fatal("no stopped rank to start")
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := makeCluster(t)
			// Oracle mode: every Check is a full sweep, so per-page laws see
			// corruptions that never touch a shadow aggregate.
			a := New(c, Config{CrossEvery: 1})
			stepToPaging(t, c)
			if err := a.Check(); err != nil {
				t.Fatalf("pre-corruption sweep failed: %v", err)
			}
			requirePaging(t, c)
			tc.corrupt(t, c)
			err := a.Check()
			var v *Violation
			if !errors.As(err, &v) {
				t.Fatalf("corruption not detected (err = %v)", err)
			}
			if v.Invariant != tc.want {
				t.Fatalf("violation attributed to %q, want %q: %v", v.Invariant, tc.want, v)
			}
			if a.Violations() != 1 {
				t.Fatalf("violation counter = %d, want 1", a.Violations())
			}
		})
	}
}

func runningPID(t *testing.T, c *cluster.Cluster) int {
	t.Helper()
	j := c.Scheduler().Running()
	if j == nil {
		t.Fatal("no running job")
	}
	return j.Members[0].Proc.PID()
}

// TestAuditSweepInterval pins the sampling contract: Every=N sweeps about
// every N-th event, and a violation in the final events is still caught by
// the quiescence sweep.
func TestAuditSweepInterval(t *testing.T) {
	dense := makeCluster(t)
	ad := Attach(dense, Config{Every: 1})
	if err := dense.Run(time10m()); err != nil {
		t.Fatal(err)
	}
	sparse := makeCluster(t)
	as := Attach(sparse, Config{Every: 64})
	if err := sparse.Run(time10m()); err != nil {
		t.Fatal(err)
	}
	if as.Checks() == 0 || as.Checks() >= ad.Checks() {
		t.Fatalf("sparse auditor ran %d sweeps, dense %d", as.Checks(), ad.Checks())
	}
}

// TestAuditCheckZeroAlloc enforces the zero-garbage contract on both check
// paths: after the first pass sized the scratch, a clean differential check
// and a clean full sweep must not allocate.
func TestAuditCheckZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name       string
		crossEvery int
	}{
		{"differential", -1},
		{"sweep", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := makeCluster(t)
			a := New(c, Config{CrossEvery: tc.crossEvery})
			stepToPaging(t, c)
			if err := a.Check(); err != nil { // warm-up sizes scratch buffers
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				// Defeat the version gate so the differential pass evaluates
				// every law instead of skipping the untouched node.
				c.Nodes[0].Acct.Touch()
				if err := a.Check(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("clean check allocates %.1f objects per run, want 0", allocs)
			}
		})
	}
}

// TestAuditDifferentialDetectsCorruption drives the O(delta) path alone
// (periodic sweeps disabled) against corruptions its aggregate laws cover.
// Corruptions that bypass the emitting layers don't bump the node version,
// so each case touches the aggregate afterwards — exactly what any real
// transition co-occurring with the bug would do.
func TestAuditDifferentialDetectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		want    string
		corrupt func(t *testing.T, c *cluster.Cluster)
	}{
		{
			name: "frame released while still mapped",
			want: InvFrameConservation,
			corrupt: func(t *testing.T, c *cluster.Cluster) {
				c.Nodes[0].Phys.Release(1)
			},
		},
		{
			name: "leaked frame owned by a ghost process",
			want: InvFrameConservation,
			corrupt: func(t *testing.T, c *cluster.Cluster) {
				if c.Nodes[0].Phys.Take(1) == 0 {
					t.Skip("no free frame to leak")
				}
			},
		},
		{
			name: "resident aggregate drifts from the transition accounting",
			want: InvResidentCounter,
			corrupt: func(t *testing.T, c *cluster.Cluster) {
				c.Nodes[0].Acct.Resident++
			},
		},
		{
			name: "in-flight split drifts from mapped minus resident",
			want: InvInFlight,
			corrupt: func(t *testing.T, c *cluster.Cluster) {
				c.Nodes[0].Acct.InFlight++
			},
		},
		{
			name: "swap slots leak past process teardown",
			want: InvSwapAccounting,
			corrupt: func(t *testing.T, c *cluster.Cluster) {
				if _, err := c.Nodes[0].Swap.Reserve(10); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "selective designation targets the running job",
			want: InvGangOutgoing,
			corrupt: func(t *testing.T, c *cluster.Cluster) {
				c.Nodes[0].VM.SetOutgoing(runningPID(t, c))
			},
		},
		{
			name: "running rank carries the stopped mark",
			want: InvGangStopped,
			corrupt: func(t *testing.T, c *cluster.Cluster) {
				c.Nodes[0].Kernel.MarkStopped(runningPID(t, c))
			},
		},
		{
			name: "two jobs running on one node",
			want: InvGangSingleRun,
			corrupt: func(t *testing.T, c *cluster.Cluster) {
				for _, j := range c.Scheduler().Jobs() {
					m := &j.Members[0]
					if !m.Proc.Running() {
						m.Proc.Start()
						return
					}
				}
				t.Fatal("no stopped rank to start")
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := makeCluster(t)
			a := New(c, Config{CrossEvery: -1})
			stepToPaging(t, c)
			if err := a.Check(); err != nil {
				t.Fatalf("pre-corruption check failed: %v", err)
			}
			requirePaging(t, c)
			tc.corrupt(t, c)
			c.Nodes[0].Acct.Touch()
			err := a.Check()
			var v *Violation
			if !errors.As(err, &v) {
				t.Fatalf("corruption not detected differentially (err = %v)", err)
			}
			if v.Invariant != tc.want {
				t.Fatalf("violation attributed to %q, want %q: %v", v.Invariant, tc.want, v)
			}
			if a.Sweeps() != 0 {
				t.Fatalf("differential-only auditor ran %d sweeps", a.Sweeps())
			}
		})
	}
}

// TestAuditSweepCatchesAcctDrift is the oracle's negative test: a corrupted
// shadow aggregate that every differential law still accepts (dirty count
// nudged within its bounds) slips past Check, and the full sweep flags it
// as acct-drift — a silently weakened audit is itself a violation.
func TestAuditSweepCatchesAcctDrift(t *testing.T) {
	c := makeCluster(t)
	a := New(c, Config{CrossEvery: -1})
	stepToPaging(t, c)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	requirePaging(t, c)
	cnt := c.Nodes[0].Acct
	if cnt.Dirty > 0 {
		cnt.Dirty--
	} else if cnt.Resident > 0 {
		cnt.Dirty++
	} else {
		t.Fatal("no resident pages to misaccount")
	}
	cnt.Touch()
	if err := a.Check(); err != nil {
		t.Fatalf("differential check was expected to miss the in-bounds drift, got %v", err)
	}
	err := a.Final()
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("sweep did not catch the drifted aggregate (err = %v)", err)
	}
	if v.Invariant != InvAcctDrift {
		t.Fatalf("violation attributed to %q, want %q: %v", v.Invariant, InvAcctDrift, v)
	}
}

// TestAuditCrossCadence pins the sweep scheduling contract: CrossEvery=n
// sweeps every n-th check, CrossEvery<0 sweeps only via Final, and a
// cluster without shadow aggregates always sweeps.
func TestAuditCrossCadence(t *testing.T) {
	c := makeCluster(t)
	a := Attach(c, Config{Every: 1, CrossEvery: 64})
	if err := c.Run(time10m()); err != nil {
		t.Fatal(err)
	}
	if a.Sweeps() == 0 || a.Sweeps() >= a.Checks() {
		t.Fatalf("CrossEvery=64 ran %d sweeps out of %d checks", a.Sweeps(), a.Checks())
	}
	// Every 64th check sweeps, plus the quiescence Final: allow the ±1 from
	// the partial trailing window.
	if got, approx := a.Sweeps(), a.Checks()/64+1; got < approx-1 || got > approx+1 {
		t.Fatalf("CrossEvery=64 ran %d sweeps over %d checks, want about %d", got, a.Checks(), approx)
	}

	c = makeCluster(t)
	a = Attach(c, Config{Every: 1, CrossEvery: -1})
	if err := c.Run(time10m()); err != nil {
		t.Fatal(err)
	}
	if a.Sweeps() != 1 {
		t.Fatalf("differential-only run swept %d times, want exactly the quiescence sweep", a.Sweeps())
	}

	// No EnableAcct: the fallback must sweep on every check.
	plain, err := cluster.New(1, 1, cluster.NodeConfig{MemoryMB: 2}, core.SOAOAIBG, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	beh := proc.Behavior{
		FootprintPages: 100,
		Iterations:     2,
		Segments:       []proc.Segment{{Offset: 0, Pages: 100, Write: true, Passes: 1}},
		TouchCost:      10 * sim.Microsecond,
	}
	if _, err := plain.AddJob(cluster.JobSpec{Name: "a", Behavior: beh, Quantum: 20 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	plain.BuildScheduler(gang.Options{})
	ap := Attach(plain, Config{Every: 1})
	if err := plain.Run(time10m()); err != nil {
		t.Fatal(err)
	}
	if ap.Sweeps() != ap.Checks() {
		t.Fatalf("acct-less cluster swept %d of %d checks, want all", ap.Sweeps(), ap.Checks())
	}
}

// TestViolationCarriesEventTail pins a violation's event tail: the last 32
// events the run's bus delivered, oldest first, each listed in the error
// text. The auditor's ring holds more than 32, so the cut is the auditor's.
func TestViolationCarriesEventTail(t *testing.T) {
	c, err := cluster.New(1, 1, cluster.NodeConfig{MemoryMB: 2}, core.SOAOAIBG, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableAcct()
	all, tail := obs.NewRing(1<<16), obs.NewRing(64)
	c.EnableObservability((&obs.Options{Sinks: []obs.Sink{all, tail}}).Build())
	// Each job needs several quanta, so the two switch, page and emit.
	for _, name := range []string{"a", "b"} {
		beh := proc.Behavior{
			FootprintPages: 300,
			Iterations:     40,
			Segments:       []proc.Segment{{Offset: 0, Pages: 300, Write: true, Passes: 1}},
			TouchCost:      10 * sim.Microsecond,
		}
		if _, err := c.AddJob(cluster.JobSpec{Name: name, Behavior: beh, Quantum: 20 * sim.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	c.BuildScheduler(gang.Options{})
	a := New(c, Config{CrossEvery: 1, Ring: tail})
	c.Scheduler().Start()
	step(t, c, 1500)
	if err := a.Check(); err != nil {
		t.Fatalf("pre-corruption sweep failed: %v", err)
	}
	if _, err := c.Nodes[0].Swap.Reserve(10); err != nil {
		t.Fatal(err)
	}
	var v *Violation
	if err := a.Check(); !errors.As(err, &v) {
		t.Fatalf("corruption not detected (err = %v)", err)
	}
	events := all.Events()
	if len(events) <= 64 {
		t.Fatalf("only %d events before the violation; the tail ring never wrapped", len(events))
	}
	want := events[len(events)-32:]
	if !reflect.DeepEqual(v.Trace, want) {
		t.Fatalf("violation tail holds %d events %v,\nwant the last 32 delivered %v", len(v.Trace), v.Trace, want)
	}
	msg := v.Error()
	_, rest, ok := strings.Cut(msg, "\nlast 32 events:")
	if !ok {
		t.Fatalf("violation message lists no 32-event tail:\n%s", msg)
	}
	for i, ev := range want {
		line := fmt.Sprintf("\n  %v %s node=%d", ev.T, ev.Kind, ev.Node)
		at := strings.Index(rest, line)
		if at < 0 {
			t.Fatalf("event %d (%q) missing or out of order in:\n%s", i, line, msg)
		}
		rest = rest[at+len(line):]
	}
}

// TestViolationError pins the report format: invariant, location, detail.
func TestViolationError(t *testing.T) {
	v := &Violation{
		Invariant: InvInFlight,
		Node:      2, PID: 7, VPage: 41,
		Time:   sim.Time(0).Add(3 * sim.Second),
		Detail: "page both settled and in flight",
	}
	msg := v.Error()
	for _, want := range []string{InvInFlight, "node 2", "pid 7", "vpage 41", "page both settled and in flight"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("violation message %q missing %q", msg, want)
		}
	}
}
