package queue

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually advanced wall clock for deterministic backoff
// tests.
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

func mustLease(t *testing.T, q *Queue) *Job {
	t.Helper()
	j, ok, _, err := q.Lease()
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	if !ok {
		t.Fatal("Lease: no job ready")
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
	a := mustLease(t, q)
	if a.ID != jobs[0].ID {
		t.Fatalf("leased %s, want oldest %s", a.ID, jobs[0].ID)
	}
	if a.State != StateLeased {
		t.Fatalf("lease state = %s", a.State)
	}
	if err := q.Complete(a.ID, json.RawMessage(`"done-a"`)); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	got, _ := q.Get(a.ID)
	if got.State != StateDone || string(got.Result) != `"done-a"` {
		t.Fatalf("after complete: %s %s", got.State, got.Result)
	}

	b := mustLease(t, q)
	if b.ID != jobs[1].ID {
		t.Fatalf("leased %s, want %s", b.ID, jobs[1].ID)
	}
	if err := q.Complete(b.ID, nil); err != nil {
		t.Fatal(err)
	}
	if d := q.Depths(); d[StateDone] != 2 || d[StatePending] != 0 {
		t.Fatalf("depths = %v", d)
	}
}

func TestCompleteRequiresOwnership(t *testing.T) {
	q, _ := openTest(t, t.TempDir(), nil)
	jobs := mustEnqueue(t, q, NewJob{Kind: "run", ParentIndex: -1})
	if err := q.Complete(jobs[0].ID, nil); !errors.Is(err, ErrNotLeased) {
		t.Fatalf("complete of unleased job: %v", err)
	}
	if err := q.Complete("j999999", nil); !errors.Is(err, ErrNotFound) {
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
		j := mustLease(t, q)
		if j.ID != id {
			t.Fatalf("attempt %d leased %s", attempt, j.ID)
		}
		if err := q.Fail(id, "boom"); err != nil {
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
		if _, ok, retryAt, _ := q.Lease(); ok || !retryAt.Equal(got.NotBefore) {
			t.Fatalf("leased during backoff (ok=%v retryAt=%v want %v)", ok, retryAt, got.NotBefore)
		}
		clock.Advance(backoff + time.Millisecond)
	}

	// Third failure exhausts MaxAttempts: dead letter, never dispatched again.
	mustLease(t, q)
	if err := q.Fail(id, "boom 3"); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get(id)
	if got.State != StateDead || got.Attempts != 3 || got.Error != "boom 3" {
		t.Fatalf("after final fail: %+v", got)
	}
	clock.Advance(time.Hour)
	if _, ok, _, _ := q.Lease(); ok {
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
			mustLease(t, q)
			if err := q.Fail(jobs[0].ID, "x"); err != nil {
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

func TestReleaseIsAttemptNeutral(t *testing.T) {
	q, _ := openTest(t, t.TempDir(), nil)
	jobs := mustEnqueue(t, q, NewJob{Kind: "run", ParentIndex: -1})
	j := mustLease(t, q)
	if err := q.Release(j.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get(jobs[0].ID)
	if got.State != StatePending || got.Attempts != 0 {
		t.Fatalf("after release: state=%s attempts=%d", got.State, got.Attempts)
	}
	// Immediately leasable again.
	j2 := mustLease(t, q)
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
	j := mustLease(t, q)
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
	mustLease(t, q) // jobs[0] leased
	if err := q.Complete(jobs[0].ID, json.RawMessage(`"r0"`)); err != nil {
		t.Fatal(err)
	}
	mustLease(t, q) // jobs[1] leased and abandoned (simulated crash: no Close flush needed, every record synced)
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
	if j := mustLease(t, q2); j.ID != jobs[1].ID {
		t.Fatalf("first re-lease %s, want %s", j.ID, jobs[1].ID)
	}
	if j := mustLease(t, q2); j.ID != jobs[2].ID {
		t.Fatalf("second re-lease %s, want %s", j.ID, jobs[2].ID)
	}
	if _, ok, _, _ := q2.Lease(); ok {
		t.Fatal("third lease produced a job")
	}
}

// TestUndecodableJournalRecordIsDropped puts a record that passes its
// checksum but does not decode after a journal's one enqueue, and another
// record after that. Open must drop both and append where replay stopped,
// so that what the reopened queue acknowledges survives the next restart.
func TestUndecodableJournalRecordIsDropped(t *testing.T) {
	dir := t.TempDir()
	q, _ := openTest(t, dir, nil)
	mustEnqueue(t, q, NewJob{Kind: "run", ParentIndex: -1})
	q.Close()
	path := filepath.Join(dir, journalName)
	rec, err := recoverJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := openJournal(path, rec.Tail, false)
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte(`{"jobs":"not a list"}`)
	later := []byte(`{"jobs":[{"id":"j000009","seq":9,"kind":"run","state":"pending","version":1}]}`)
	for _, p := range [][]byte{bad, later} {
		if err := jnl.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	jnl.Close()

	q2, stats := openTest(t, dir, nil)
	wantDropped := int64(2*recordHeaderLen + len(bad) + len(later))
	if len(q2.List()) != 1 || stats.JournalRecords != 1 || stats.DroppedRecords != 2 || stats.DroppedBytes != wantDropped {
		t.Fatalf("reopened with %d jobs and %+v, want 1 job, 1 record replayed, 2 records and %d bytes dropped",
			len(q2.List()), stats, wantDropped)
	}
	added := mustEnqueue(t, q2, NewJob{Kind: "run", ParentIndex: -1}, NewJob{Kind: "run", ParentIndex: -1})
	if added[0].ID != "j000001" || added[1].ID != "j000002" {
		t.Fatalf("enqueued %s and %s, want j000001 and j000002", added[0].ID, added[1].ID)
	}
	done := mustLease(t, q2)
	if err := q2.Complete(done.ID, json.RawMessage(`"r"`)); err != nil {
		t.Fatal(err)
	}
	q2.Close()

	q3, stats := openTest(t, dir, nil)
	if stats.DroppedBytes != 0 || stats.DroppedRecords != 0 {
		t.Fatalf("second reopen dropped %d records and %d bytes", stats.DroppedRecords, stats.DroppedBytes)
	}
	want := []State{StateDone, StatePending, StatePending}
	jobs := q3.List()
	if len(jobs) != len(want) {
		t.Fatalf("second reopen has %d jobs, want %d", len(jobs), len(want))
	}
	for i, j := range jobs {
		if j.ID != fmt.Sprintf("j%06d", i) || j.State != want[i] {
			t.Fatalf("job %d: %s %s, want j%06d %s", i, j.ID, j.State, i, want[i])
		}
	}
	if nj := mustEnqueue(t, q3, NewJob{Kind: "run", ParentIndex: -1}); nj[0].ID != "j000003" {
		t.Fatalf("next enqueue got %s, want j000003", nj[0].ID)
	}
}

func TestCheckpointCompactsAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	q, _ := openTest(t, dir, func(o *Options) { o.CheckpointEvery = -1 })
	jobs := mustEnqueue(t, q,
		NewJob{Kind: "run", ParentIndex: -1},
		NewJob{Kind: "run", ParentIndex: -1},
	)
	mustLease(t, q)
	if err := q.Complete(jobs[0].ID, json.RawMessage(`"r"`)); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// More mutations after the checkpoint land in the fresh journal.
	mustLease(t, q)
	if err := q.Fail(jobs[1].ID, "later"); err != nil {
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
		mustLease(t, q)
		if err := q.Complete(jobs[0].ID, nil); err != nil {
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
	mustLease(t, q)
	if err := q.Complete(jobs[0].ID, nil); err != nil {
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
	if _, _, _, err := q.Lease(); !errors.Is(err, ErrClosed) {
		t.Fatalf("lease after close: %v", err)
	}
	if err := q.Complete(jobs[0].ID, nil); !errors.Is(err, ErrClosed) {
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
	enqueue := func(t *testing.T, q *Queue) string {
		return mustEnqueue(t, q, NewJob{Kind: "run", ParentIndex: -1})[0].ID
	}
	leased := func(t *testing.T, q *Queue) string {
		enqueue(t, q)
		return mustLease(t, q).ID
	}
	for _, tc := range []struct {
		name    string
		records int64                               // journal records the set-up writes
		setup   func(t *testing.T, q *Queue) string // returns the job to watch
		op      func(q *Queue, id string) error
	}{
		{"lease", 1, enqueue, func(q *Queue, _ string) error {
			_, _, _, err := q.Lease()
			return err
		}},
		{"complete", 2, leased, func(q *Queue, id string) error {
			return q.Complete(id, json.RawMessage(`"ok"`))
		}},
		{"fail", 2, leased, func(q *Queue, id string) error { return q.Fail(id, "boom") }},
		{"release", 2, leased, func(q *Queue, id string) error { return q.Release(id) }},
		{"finalize", 1, func(t *testing.T, q *Queue) string {
			return mustEnqueue(t, q, NewJob{Kind: "sweep", ParentIndex: -1, Waiting: true})[0].ID
		}, func(q *Queue, id string) error {
			return q.Finalize(id, json.RawMessage(`[]`), "")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var events []Event
			q, _ := openTest(t, t.TempDir(), func(o *Options) {
				o.Sink = func(ev Event) { events = append(events, ev) }
				o.CrashAfterRecords = tc.records
			})
			id := tc.setup(t, q)
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

// checkpointed returns a queue directory whose checkpoint holds n jobs,
// each completed with result, and whose journal is a bare header.
func checkpointed(t *testing.T, n int, result json.RawMessage) string {
	t.Helper()
	dir := t.TempDir()
	q, _ := openTest(t, dir, func(o *Options) { o.CheckpointEvery = -1; o.NoSync = true })
	for i := 0; i < n; i++ {
		j := mustEnqueue(t, q, NewJob{Kind: "run", ParentIndex: -1})[0]
		mustLease(t, q)
		if err := q.Complete(j.ID, result); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	q.Close()
	return dir
}

// TestCheckpointHoldsOneRecordPerJob checkpoints more result bytes than
// one journal record may hold: each job is its own record, so the
// checkpoint succeeds and reopens with every job.
func TestCheckpointHoldsOneRecordPerJob(t *testing.T) {
	result := json.RawMessage(`"` + strings.Repeat("r", 1<<20) + `"`)
	dir := checkpointed(t, 20, result)
	rec, err := recoverJournal(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 20 || rec.DroppedBytes != 0 {
		t.Fatalf("checkpoint holds %d records and %d dropped bytes, want 20 and 0", len(rec.Records), rec.DroppedBytes)
	}
	q, stats := openTest(t, dir, nil)
	if !stats.FromCheckpoint || stats.JournalRecords != 0 {
		t.Fatalf("reopen stats: %+v", stats)
	}
	jobs := q.List()
	if len(jobs) != 20 {
		t.Fatalf("reopened with %d jobs, want 20", len(jobs))
	}
	for i, j := range jobs {
		if j.Seq != uint64(i) || j.State != StateDone || !bytes.Equal(j.Result, result) {
			t.Fatalf("job %d: seq %d, state %s, %d result bytes", i, j.Seq, j.State, len(j.Result))
		}
	}
}

// TestSnapshotCheckpointStillOpens opens a checkpoint in the older layout,
// the whole state as one snapshot record: a waiting sweep parent with a
// done, a backing-off and a leased child, and a pending run.
func TestSnapshotCheckpointStillOpens(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "snapshot.checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, checkpointName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	q, stats := openTest(t, dir, nil)
	if !stats.FromCheckpoint || stats.RevertedLeases != 1 {
		t.Fatalf("open stats: %+v", stats)
	}
	want := []struct {
		state    State
		attempts int
		crashes  int
	}{{StateWaiting, 0, 0}, {StateDone, 0, 0}, {StatePending, 1, 0}, {StatePending, 0, 1}, {StatePending, 0, 0}}
	jobs := q.List()
	if len(jobs) != len(want) {
		t.Fatalf("opened with %d jobs, want %d", len(jobs), len(want))
	}
	for i, w := range want {
		j := jobs[i]
		if j.Seq != uint64(i) || j.State != w.state || j.Attempts != w.attempts || j.Crashes != w.crashes {
			t.Fatalf("job %d: %+v, want %+v", i, j, w)
		}
	}
	if got := string(jobs[1].Result); got != `{"label":"a","result":{"Makespan":1}}` {
		t.Fatalf("done child result %s", got)
	}
	if got := q.Children(jobs[0].ID); len(got) != 3 {
		t.Fatalf("sweep parent has %d children, want 3", len(got))
	}
	if nj := mustEnqueue(t, q, NewJob{Kind: "run", ParentIndex: -1}); nj[0].Seq != 5 {
		t.Fatalf("next seq %d, want 5", nj[0].Seq)
	}
}

// TestDamagedCheckpointFailsOpen damages a checkpoint of five jobs: the
// journal it absorbed is gone, so Open must fail naming the file rather
// than start without those jobs.
func TestDamagedCheckpointFailsOpen(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"flipped magic byte", func(b []byte) []byte { b[0] ^= 0x01; return b }},
		{"flipped payload byte", func(b []byte) []byte { b[journalHeaderLen+recordHeaderLen+2] ^= 0x01; return b }},
		{"torn last record", func(b []byte) []byte { return b[:len(b)-3] }},
		{"record that does not decode", func(b []byte) []byte {
			return buildJournal(t, []byte(`{"jobs":[{"id":"j000000","version":1}]}`), []byte(`{"jobs":[null]}`))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := checkpointed(t, 5, json.RawMessage(`"ok"`))
			path := filepath.Join(dir, checkpointName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}
			q, _, err := Open(Options{Dir: dir})
			if err == nil {
				q.Close()
				t.Fatalf("Open of a damaged checkpoint succeeded with %d jobs", len(q.List()))
			}
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), path) {
				t.Fatalf("Open: %v, want ErrCorrupt naming %s", err, path)
			}
		})
	}
}
