package queue

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"
)

// fakeClock is a manually advanced wall clock for deterministic lease and
// backoff tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

func openTest(t *testing.T, dir string, mut func(*Options)) (*Queue, RecoveryStats) {
	t.Helper()
	opts := Options{Dir: dir, Clock: newFakeClock().Now}
	if mut != nil {
		mut(&opts)
	}
	q, stats, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { q.Close() })
	return q, stats
}

func mustEnqueue(t *testing.T, q *Queue, batch ...NewJob) []*Job {
	t.Helper()
	jobs, err := q.Enqueue(batch...)
	if err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	return jobs
}

func mustLease(t *testing.T, q *Queue, worker string) *Job {
	t.Helper()
	j, ok, _, err := q.Lease(worker)
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	if !ok {
		t.Fatalf("Lease(%s): no job ready", worker)
	}
	return j
}

func TestEnqueueLeaseCompleteRoundTrip(t *testing.T) {
	q, _ := openTest(t, t.TempDir(), nil)
	jobs := mustEnqueue(t, q,
		NewJob{Kind: "run", Spec: json.RawMessage(`{"n":1}`), ParentIndex: -1},
		NewJob{Kind: "run", Spec: json.RawMessage(`{"n":2}`), ParentIndex: -1},
	)
	if jobs[0].ID == jobs[1].ID {
		t.Fatalf("duplicate IDs: %s", jobs[0].ID)
	}

	// FIFO order.
	a := mustLease(t, q, "w1")
	if a.ID != jobs[0].ID {
		t.Fatalf("leased %s, want oldest %s", a.ID, jobs[0].ID)
	}
	if a.State != StateLeased || a.Worker != "w1" {
		t.Fatalf("lease state = %s/%q", a.State, a.Worker)
	}
	if err := q.Complete(a.ID, "w1", json.RawMessage(`"done-a"`)); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	got, _ := q.Get(a.ID)
	if got.State != StateDone || string(got.Result) != `"done-a"` {
		t.Fatalf("after complete: %s %s", got.State, got.Result)
	}

	b := mustLease(t, q, "w2")
	if b.ID != jobs[1].ID {
		t.Fatalf("leased %s, want %s", b.ID, jobs[1].ID)
	}
	if err := q.Complete(b.ID, "w2", nil); err != nil {
		t.Fatal(err)
	}
	if d := q.Depths(); d[StateDone] != 2 || d[StatePending] != 0 {
		t.Fatalf("depths = %v", d)
	}
}

func TestCompleteRequiresOwnership(t *testing.T) {
	q, _ := openTest(t, t.TempDir(), nil)
	jobs := mustEnqueue(t, q, NewJob{Kind: "run", ParentIndex: -1})
	if err := q.Complete(jobs[0].ID, "ghost", nil); !errors.Is(err, ErrNotLeased) {
		t.Fatalf("complete of unleased job: %v", err)
	}
	mustLease(t, q, "w1")
	if err := q.Complete(jobs[0].ID, "w2", nil); !errors.Is(err, ErrNotLeased) {
		t.Fatalf("complete by wrong worker: %v", err)
	}
	if err := q.Complete("j999999", "w1", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("complete of unknown job: %v", err)
	}
}

func TestFailBacksOffThenDeadLetters(t *testing.T) {
	clock := newFakeClock()
	q, _ := openTest(t, t.TempDir(), func(o *Options) {
		o.Clock = clock.Now
		o.MaxAttempts = 3
		o.RetryBase = time.Second
		o.RetryCap = time.Minute
	})
	jobs := mustEnqueue(t, q, NewJob{Kind: "run", ParentIndex: -1})
	id := jobs[0].ID

	var lastBackoff time.Duration
	for attempt := 1; attempt < 3; attempt++ {
		j := mustLease(t, q, "w")
		if j.ID != id {
			t.Fatalf("attempt %d leased %s", attempt, j.ID)
		}
		if err := q.Fail(id, "w", "boom"); err != nil {
			t.Fatal(err)
		}
		got, _ := q.Get(id)
		if got.State != StatePending || got.Attempts != attempt {
			t.Fatalf("after fail %d: %s attempts=%d", attempt, got.State, got.Attempts)
		}
		backoff := got.NotBefore.Sub(clock.Now())
		// Base·2^(attempt-1), jittered into [0.5, 1.0]×.
		max := time.Second << (attempt - 1)
		if backoff < max/2 || backoff > max {
			t.Fatalf("attempt %d backoff %v outside [%v, %v]", attempt, backoff, max/2, max)
		}
		if backoff == lastBackoff {
			t.Logf("note: identical jitter on consecutive attempts (%v)", backoff)
		}
		lastBackoff = backoff

		// Not ready until the backoff passes.
		if _, ok, retryAt, _ := q.Lease("w"); ok || !retryAt.Equal(got.NotBefore) {
			t.Fatalf("leased during backoff (ok=%v retryAt=%v want %v)", ok, retryAt, got.NotBefore)
		}
		clock.Advance(backoff + time.Millisecond)
	}

	// Third failure exhausts MaxAttempts: dead letter, never dispatched again.
	mustLease(t, q, "w")
	if err := q.Fail(id, "w", "boom 3"); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get(id)
	if got.State != StateDead || got.Attempts != 3 || got.Error != "boom 3" {
		t.Fatalf("after final fail: %+v", got)
	}
	clock.Advance(time.Hour)
	if _, ok, _, _ := q.Lease("w"); ok {
		t.Fatal("dead-lettered job was leased again")
	}
}

func TestBackoffJitterIsSeeded(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		clock := newFakeClock()
		q, _ := openTest(t, t.TempDir(), func(o *Options) {
			o.Clock = clock.Now
			o.Seed = seed
			o.MaxAttempts = 100
		})
		jobs := mustEnqueue(t, q, NewJob{Kind: "run", ParentIndex: -1})
		var out []time.Duration
		for i := 0; i < 6; i++ {
			mustLease(t, q, "w")
			if err := q.Fail(jobs[0].ID, "w", "x"); err != nil {
				t.Fatal(err)
			}
			got, _ := q.Get(jobs[0].ID)
			out = append(out, got.NotBefore.Sub(clock.Now()))
			clock.Advance(time.Hour)
		}
		return out
	}
	a, b := delays(7), delays(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := delays(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

func TestLeaseExpiryReclaim(t *testing.T) {
	clock := newFakeClock()
	q, _ := openTest(t, t.TempDir(), func(o *Options) {
		o.Clock = clock.Now
		o.LeaseTTL = 10 * time.Second
	})
	jobs := mustEnqueue(t, q, NewJob{Kind: "run", ParentIndex: -1})
	j := mustLease(t, q, "w1")
	if want := clock.Now().Add(10 * time.Second); !j.LeaseDeadline.Equal(want) {
		t.Fatalf("lease deadline %v, want %v", j.LeaseDeadline, want)
	}

	// Heartbeats push the deadline out.
	clock.Advance(8 * time.Second)
	if err := q.Heartbeat(j.ID, "w1"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(8 * time.Second) // 16s after lease: alive only thanks to the heartbeat
	if n, _ := q.Reclaim(); n != 0 {
		t.Fatalf("reclaimed %d heartbeated leases", n)
	}

	// Silence past the deadline: reclaimed, attempt counted.
	clock.Advance(3 * time.Second)
	n, err := q.Reclaim()
	if err != nil || n != 1 {
		t.Fatalf("Reclaim = %d, %v", n, err)
	}
	got, _ := q.Get(jobs[0].ID)
	if got.State != StatePending || got.Attempts != 1 || got.Worker != "" {
		t.Fatalf("after reclaim: %+v", got)
	}
	// The stale worker's completion must now be rejected.
	if err := q.Complete(jobs[0].ID, "w1", nil); !errors.Is(err, ErrNotLeased) {
		t.Fatalf("stale lease completion: %v", err)
	}
	// Heartbeat from the stale worker likewise.
	if err := q.Heartbeat(jobs[0].ID, "w1"); !errors.Is(err, ErrNotLeased) {
		t.Fatalf("stale heartbeat: %v", err)
	}
}

func TestReleaseIsAttemptNeutral(t *testing.T) {
	q, _ := openTest(t, t.TempDir(), nil)
	jobs := mustEnqueue(t, q, NewJob{Kind: "run", ParentIndex: -1})
	j := mustLease(t, q, "w1")
	if err := q.Release(j.ID, "w1"); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get(jobs[0].ID)
	if got.State != StatePending || got.Attempts != 0 {
		t.Fatalf("after release: state=%s attempts=%d", got.State, got.Attempts)
	}
	// Immediately leasable again.
	j2 := mustLease(t, q, "w2")
	if j2.ID != jobs[0].ID {
		t.Fatalf("re-lease got %s", j2.ID)
	}
}

func TestSweepBatchAtomicityAndFinalize(t *testing.T) {
	q, _ := openTest(t, t.TempDir(), nil)
	jobs := mustEnqueue(t, q,
		NewJob{Kind: "sweep", ParentIndex: -1, Waiting: true},
		NewJob{Kind: "run", Spec: json.RawMessage(`1`), ParentIndex: 0},
		NewJob{Kind: "run", Spec: json.RawMessage(`2`), ParentIndex: 0},
	)
	parent := jobs[0]
	if parent.State != StateWaiting {
		t.Fatalf("parent state %s", parent.State)
	}
	if jobs[1].Parent != parent.ID || jobs[2].Parent != parent.ID {
		t.Fatalf("children parents: %q %q", jobs[1].Parent, jobs[2].Parent)
	}
	// The waiting parent is never leased.
	j := mustLease(t, q, "w")
	if j.ID == parent.ID {
		t.Fatal("leased the waiting parent")
	}
	kids := q.Children(parent.ID)
	if len(kids) != 2 || kids[0].ID != jobs[1].ID || kids[1].ID != jobs[2].ID {
		t.Fatalf("children = %+v", kids)
	}
	if err := q.Finalize(parent.ID, json.RawMessage(`"agg"`), ""); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get(parent.ID)
	if got.State != StateDone || string(got.Result) != `"agg"` {
		t.Fatalf("finalized parent: %+v", got)
	}
	// Terminal jobs reject a second finalize.
	if err := q.Finalize(parent.ID, nil, ""); !errors.Is(err, ErrBadState) {
		t.Fatalf("double finalize: %v", err)
	}
	// A forward parent reference is rejected.
	if _, err := q.Enqueue(NewJob{Kind: "run", ParentIndex: 0}, NewJob{Kind: "sweep", ParentIndex: -1}); err == nil {
		t.Fatal("forward parent index accepted")
	}
}

func TestReopenPreservesStateAndRevertsLeases(t *testing.T) {
	dir := t.TempDir()
	q, stats := openTest(t, dir, nil)
	if stats.FromCheckpoint || stats.JournalRecords != 0 {
		t.Fatalf("fresh open stats: %+v", stats)
	}
	jobs := mustEnqueue(t, q,
		NewJob{Kind: "run", Spec: json.RawMessage(`{"a":1}`), ParentIndex: -1},
		NewJob{Kind: "run", Spec: json.RawMessage(`{"b":2}`), ParentIndex: -1},
		NewJob{Kind: "run", Spec: json.RawMessage(`{"c":3}`), ParentIndex: -1},
	)
	mustLease(t, q, "w1") // jobs[0] leased
	if err := q.Complete(jobs[0].ID, "w1", json.RawMessage(`"r0"`)); err != nil {
		t.Fatal(err)
	}
	mustLease(t, q, "w1") // jobs[1] leased and abandoned (simulated crash: no Close flush needed, every record synced)
	q.Close()

	q2, stats2 := openTest(t, dir, nil)
	if stats2.RevertedLeases != 1 {
		t.Fatalf("reverted %d leases, want 1", stats2.RevertedLeases)
	}
	done, _ := q2.Get(jobs[0].ID)
	if done.State != StateDone || string(done.Result) != `"r0"` {
		t.Fatalf("completed job lost: %+v", done)
	}
	reverted, _ := q2.Get(jobs[1].ID)
	if reverted.State != StatePending || reverted.Attempts != 0 || reverted.Crashes != 1 {
		t.Fatalf("leased job after reopen: %+v", reverted)
	}
	// Both unfinished jobs dispatch again, oldest first; the completed one
	// does not.
	if j := mustLease(t, q2, "w2"); j.ID != jobs[1].ID {
		t.Fatalf("first re-lease %s, want %s", j.ID, jobs[1].ID)
	}
	if j := mustLease(t, q2, "w2"); j.ID != jobs[2].ID {
		t.Fatalf("second re-lease %s, want %s", j.ID, jobs[2].ID)
	}
	if _, ok, _, _ := q2.Lease("w2"); ok {
		t.Fatal("third lease produced a job")
	}
}

func TestCheckpointCompactsAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	q, _ := openTest(t, dir, func(o *Options) { o.CheckpointEvery = -1 })
	jobs := mustEnqueue(t, q,
		NewJob{Kind: "run", ParentIndex: -1},
		NewJob{Kind: "run", ParentIndex: -1},
	)
	mustLease(t, q, "w")
	if err := q.Complete(jobs[0].ID, "w", json.RawMessage(`"r"`)); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// More mutations after the checkpoint land in the fresh journal.
	mustLease(t, q, "w")
	if err := q.Fail(jobs[1].ID, "w", "later"); err != nil {
		t.Fatal(err)
	}
	q.Close()

	q2, stats := openTest(t, dir, nil)
	if !stats.FromCheckpoint {
		t.Fatalf("reopen ignored checkpoint: %+v", stats)
	}
	if stats.JournalRecords != 2 {
		t.Fatalf("journal records after checkpoint = %d, want 2 (lease+fail)", stats.JournalRecords)
	}
	a, _ := q2.Get(jobs[0].ID)
	b, _ := q2.Get(jobs[1].ID)
	if a.State != StateDone || b.State != StatePending || b.Attempts != 1 || b.Error != "later" {
		t.Fatalf("post-checkpoint state: a=%+v b=%+v", a, b)
	}
	// New enqueues must not collide with pre-checkpoint sequence numbers.
	nj := mustEnqueue(t, q2, NewJob{Kind: "run", ParentIndex: -1})
	if nj[0].Seq <= jobs[1].Seq {
		t.Fatalf("seq regressed: new %d vs old %d", nj[0].Seq, jobs[1].Seq)
	}
}

func TestAutoCheckpointTriggers(t *testing.T) {
	dir := t.TempDir()
	q, _ := openTest(t, dir, func(o *Options) { o.CheckpointEvery = 4 })
	var ck int
	q.opts.Sink = func(ev Event) {
		if ev.Kind == EvCheckpoint {
			ck++
		}
	}
	for i := 0; i < 6; i++ {
		jobs := mustEnqueue(t, q, NewJob{Kind: "run", ParentIndex: -1})
		mustLease(t, q, "w")
		if err := q.Complete(jobs[0].ID, "w", nil); err != nil {
			t.Fatal(err)
		}
	}
	if ck == 0 {
		t.Fatal("no auto checkpoint after 18 records with CheckpointEvery=4")
	}
	// Records 19 and 20 enqueue two more jobs, and record 20 triggers a
	// checkpoint: its snapshot must hold the job that record adds, because
	// the checkpoint truncates the record away.
	mustEnqueue(t, q, NewJob{Kind: "run", ParentIndex: -1})
	mustEnqueue(t, q, NewJob{Kind: "run", ParentIndex: -1})
	q.Close()
	q2, stats := openTest(t, dir, nil)
	if !stats.FromCheckpoint {
		t.Fatal("auto checkpoint not used on reopen")
	}
	if got := len(q2.List()); got != 8 {
		t.Fatalf("job count after reopen = %d, want 8", got)
	}
}

func TestEventsCarryDepths(t *testing.T) {
	var events []Event
	dir := t.TempDir()
	opts := Options{Dir: dir, Clock: newFakeClock().Now, Sink: func(ev Event) { events = append(events, ev) }}
	q, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	jobs := mustEnqueue(t, q, NewJob{Kind: "run", ParentIndex: -1})
	mustLease(t, q, "w")
	if err := q.Complete(jobs[0].ID, "w", nil); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
	}
	want := []string{EvRecovered, EvEnqueued, EvLeased, EvCompleted}
	if len(kinds) != len(want) {
		t.Fatalf("events %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events %v, want %v", kinds, want)
		}
	}
	last := events[len(events)-1]
	if last.Depths[StateDone] != 1 || last.Depths[StatePending] != 0 {
		t.Fatalf("completion depths = %v", last.Depths)
	}
}

func TestClosedQueueRejectsEverything(t *testing.T) {
	q, _ := openTest(t, t.TempDir(), nil)
	jobs := mustEnqueue(t, q, NewJob{Kind: "run", ParentIndex: -1})
	q.Close()
	if _, err := q.Enqueue(NewJob{Kind: "run", ParentIndex: -1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: %v", err)
	}
	if _, _, _, err := q.Lease("w"); !errors.Is(err, ErrClosed) {
		t.Fatalf("lease after close: %v", err)
	}
	if err := q.Complete(jobs[0].ID, "w", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("complete after close: %v", err)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestFailedAppendChangesNothing drives every mutating call into the
// injected crash point and requires that the refused call left no trace:
// the job, the depth counts and the event stream are what they were, as
// they would be after a restart from the journal that never received it.
func TestFailedAppendChangesNothing(t *testing.T) {
	enqueue := func(t *testing.T, q *Queue, _ *fakeClock) string {
		return mustEnqueue(t, q, NewJob{Kind: "run", ParentIndex: -1})[0].ID
	}
	leased := func(t *testing.T, q *Queue, _ *fakeClock) string {
		enqueue(t, q, nil)
		return mustLease(t, q, "w").ID
	}
	expired := func(t *testing.T, q *Queue, clock *fakeClock) string {
		id := leased(t, q, clock)
		clock.Advance(time.Hour)
		return id
	}
	for _, tc := range []struct {
		name    string
		records int64                                             // journal records the set-up writes
		setup   func(t *testing.T, q *Queue, c *fakeClock) string // returns the job to watch
		op      func(q *Queue, id string) error
	}{
		{"lease", 1, enqueue, func(q *Queue, _ string) error {
			_, _, _, err := q.Lease("w")
			return err
		}},
		{"complete", 2, leased, func(q *Queue, id string) error {
			return q.Complete(id, "w", json.RawMessage(`"ok"`))
		}},
		{"fail", 2, leased, func(q *Queue, id string) error { return q.Fail(id, "w", "boom") }},
		{"release", 2, leased, func(q *Queue, id string) error { return q.Release(id, "w") }},
		{"finalize", 1, func(t *testing.T, q *Queue, _ *fakeClock) string {
			return mustEnqueue(t, q, NewJob{Kind: "sweep", ParentIndex: -1, Waiting: true})[0].ID
		}, func(q *Queue, id string) error {
			return q.Finalize(id, json.RawMessage(`[]`), "")
		}},
		{"reclaim", 2, expired, func(q *Queue, _ string) error {
			_, err := q.Reclaim()
			return err
		}},
		{"reclaim inside lease", 2, expired, func(q *Queue, _ string) error {
			_, _, _, err := q.Lease("w2")
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			var events []Event
			q, _ := openTest(t, t.TempDir(), func(o *Options) {
				o.Clock = clock.Now
				o.Sink = func(ev Event) { events = append(events, ev) }
				o.CrashAfterRecords = tc.records
			})
			id := tc.setup(t, q, clock)
			job, _ := q.Get(id)
			depths := q.Depths()
			nEvents := len(events)

			if err := tc.op(q, id); !errors.Is(err, ErrCrashPoint) {
				t.Fatalf("op returned %v, want ErrCrashPoint", err)
			}
			if got, _ := q.Get(id); !reflect.DeepEqual(got, job) {
				t.Errorf("Get after the refused op:\n%+v\nwant\n%+v", got, job)
			}
			if got := q.Depths(); !reflect.DeepEqual(got, depths) {
				t.Errorf("Depths after the refused op = %v, want %v", got, depths)
			}
			if len(events) != nEvents {
				t.Errorf("refused op emitted %+v", events[nEvents:])
			}
		})
	}
}
