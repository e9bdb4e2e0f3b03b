package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	gangsched "repro"
	"repro/internal/queue"
	"repro/internal/store"
)

// soakSubmission is the workload every crash trial replays: a two-run
// sweep that captures its event logs, so the trials compare the runs'
// stored observability streams as well as their results.
func soakSubmission() submitRequest {
	return submitRequest{
		Kind:   "sweep",
		Specs:  []gangsched.SpecConfig{fastSpec(11), fastSpec(12)},
		Labels: []string{"first", "second"},
		Events: true,
	}
}

// runSoakTrial boots a server over dir with the given crash point (0 =
// none), submits the soak sweep, and waits for either completion or the
// injected crash; it returns true when the crash fired.
func runSoakTrial(t *testing.T, dir string, crashAfter int64, parentID *string) bool {
	t.Helper()
	cfg := testConfig(t, dir)
	cfg.CrashAfterRecords = crashAfter
	s := start(t, cfg)
	defer s.Kill()

	if *parentID == "" {
		*parentID = submit(t, s, soakSubmission()).ID
	}
	deadline := time.After(60 * time.Second)
	for {
		select {
		case <-s.Crashed():
			return true
		case <-deadline:
			t.Fatalf("trial (crashAfter=%d) neither crashed nor finished", crashAfter)
		default:
		}
		if j, ok := s.Queue().Get(*parentID); ok && j.Terminal() {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// storedEvents returns run's event history from the trace store under
// dir as JSONL.
func storedEvents(t *testing.T, dir, run string) []byte {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Dump(run, &buf); err != nil {
		t.Fatalf("stored events of %s: %v", run, err)
	}
	return buf.Bytes()
}

// TestCrashResumeSoak kills the service at every journal record boundary a
// clean pass writes (enqueue, each lease, each completion, the finalize)
// and restarts it, asserting the resumed run loses nothing, duplicates
// nothing, and produces results and stored per-run event logs
// byte-identical to an uninterrupted pass. Exhausting every boundary
// subsumes sampling random ones.
func TestCrashResumeSoak(t *testing.T) {
	// Uninterrupted reference pass.
	baseDir := t.TempDir()
	var baseParent string
	if crashed := runSoakTrial(t, baseDir, 0, &baseParent); crashed {
		t.Fatal("reference pass crashed without injection")
	}
	q, _, err := queue.Open(queue.Options{Dir: baseDir})
	if err != nil {
		t.Fatal(err)
	}
	baseline, ok := q.Get(baseParent)
	if !ok || baseline.State != queue.StateDone {
		t.Fatalf("reference parent: %+v", baseline)
	}
	baseChildren := q.Children(baseParent)
	q.Close()
	// A clean pass writes: 1 enqueue batch + 2x(lease, complete) + 1
	// finalize = 6 records. Crashing after record k in [1,5] interrupts
	// mid-flight; the enqueue (record 1) is always journaled because the
	// HTTP response waits for it.
	const cleanRecords = 6

	for k := int64(1); k < cleanRecords; k++ {
		k := k
		t.Run(fmt.Sprintf("crashAfterRecord%d", k), func(t *testing.T) {
			dir := t.TempDir()
			var parentID string
			if crashed := runSoakTrial(t, dir, k, &parentID); !crashed {
				t.Fatalf("crash point %d never fired", k)
			}
			// Restart without injection: recovery + re-dispatch.
			cfg := testConfig(t, dir)
			s := start(t, cfg)
			defer s.Kill()
			parent := waitTerminal(t, s.Queue(), parentID, 60*time.Second)
			if parent.State != queue.StateDone {
				t.Fatalf("resumed parent: %s (%s)", parent.State, parent.Error)
			}
			if !bytes.Equal(parent.Result, baseline.Result) {
				t.Fatalf("resumed sweep result differs from uninterrupted run:\n%s\nvs\n%s",
					parent.Result, baseline.Result)
			}
			children := s.Queue().Children(parentID)
			if len(children) != len(baseChildren) {
				t.Fatalf("resumed sweep has %d children, want %d (lost or duplicated runs)",
					len(children), len(baseChildren))
			}
			for i, c := range children {
				b := baseChildren[i]
				if c.ID != b.ID {
					t.Fatalf("child %d id %s, want %s", i, c.ID, b.ID)
				}
				if c.State != queue.StateDone {
					t.Fatalf("child %s: %s (%s)", c.ID, c.State, c.Error)
				}
				if !bytes.Equal(c.Result, b.Result) {
					t.Fatalf("child %s result differs after crash-resume", c.ID)
				}
				if !bytes.Equal(storedEvents(t, dir, c.ID), storedEvents(t, baseDir, b.ID)) {
					t.Fatalf("child %s event log differs after crash-resume", c.ID)
				}
				if c.Attempts != 0 {
					t.Fatalf("child %s consumed %d attempts from a crash (should be attempt-neutral)",
						c.ID, c.Attempts)
				}
			}
		})
	}
}

// TestCrashDuringResumeStillConverges layers a second crash on top of the
// first recovery: even repeated kills converge to the reference result.
func TestCrashDuringResumeStillConverges(t *testing.T) {
	baseDir := t.TempDir()
	var baseParent string
	runSoakTrial(t, baseDir, 0, &baseParent)
	q, _, err := queue.Open(queue.Options{Dir: baseDir})
	if err != nil {
		t.Fatal(err)
	}
	baseline, _ := q.Get(baseParent)
	q.Close()

	dir := t.TempDir()
	var parentID string
	if crashed := runSoakTrial(t, dir, 2, &parentID); !crashed {
		t.Fatal("first crash never fired")
	}
	// The resume pass appends a lease-revert record at Open, then resumes
	// work — crash it again shortly after.
	if crashed := runSoakTrial(t, dir, 3, &parentID); !crashed {
		t.Fatal("second crash never fired")
	}
	s := start(t, testConfig(t, dir))
	defer s.Kill()
	parent := waitTerminal(t, s.Queue(), parentID, 60*time.Second)
	if parent.State != queue.StateDone {
		t.Fatalf("twice-crashed sweep: %s (%s)", parent.State, parent.Error)
	}
	if !bytes.Equal(parent.Result, baseline.Result) {
		t.Fatalf("twice-crashed sweep result diverged:\n%s\nvs\n%s", parent.Result, baseline.Result)
	}
}

// BenchmarkQueueEnqueueDispatch prices one full durable job cycle —
// journaled enqueue, lease, journaled completion — without fsync, i.e. the
// queue's CPU cost rather than the disk's.
func BenchmarkQueueEnqueueDispatch(b *testing.B) {
	q, _, err := queue.Open(queue.Options{Dir: b.TempDir(), NoSync: true, CheckpointEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	spec := json.RawMessage(`{"spec":{"seed":7},"events":false}`)
	result := json.RawMessage(`{"result":{"makespan":1}}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs, err := q.Enqueue(queue.NewJob{Kind: "run", Spec: spec, ParentIndex: -1})
		if err != nil {
			b.Fatal(err)
		}
		j, ok, _, err := q.Lease()
		if err != nil || !ok || j.ID != jobs[0].ID {
			b.Fatalf("lease: %v ok=%v", err, ok)
		}
		if err := q.Complete(j.ID, result); err != nil {
			b.Fatal(err)
		}
	}
}
