package queue

import (
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// State is a job's position in the lease state machine.
type State string

const (
	// StatePending jobs are ready (or backing off) and will be handed to
	// the next Lease once NotBefore passes.
	StatePending State = "pending"
	// StateLeased jobs are held by the worker that leased them until it
	// completes, fails or releases them, or until the process dies.
	StateLeased State = "leased"
	// StateWaiting jobs are never leased: they are aggregates (sweep
	// parents) finalized explicitly once their children settle.
	StateWaiting State = "waiting"
	// StateDone is terminal success; Result holds the payload.
	StateDone State = "done"
	// StateDead is the terminal dead-letter state: the job failed
	// MaxAttempts times (or its aggregate could not complete).
	StateDead State = "dead"
)

// States lists every state, in lifecycle order, for stable iteration.
var States = []State{StatePending, StateLeased, StateWaiting, StateDone, StateDead}

// Job is one unit of durable work. All fields are persisted; Spec and
// Result are opaque JSON owned by the caller.
type Job struct {
	ID     string `json:"id"`
	Seq    uint64 `json:"seq"`
	Kind   string `json:"kind"`
	Parent string `json:"parent,omitempty"`

	Spec   json.RawMessage `json:"spec,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`

	State    State `json:"state"`
	Attempts int   `json:"attempts"` // failed attempts
	// Crashes counts leases voided by queue recovery: the owning process
	// died without failing the job, so the revert is attempt-neutral.
	Crashes int    `json:"crashes,omitempty"`
	Error   string `json:"error,omitempty"` // last failure cause

	// Version increments on every journaled mutation; replay applies an
	// entry only when it is newer than the in-memory job, which makes
	// re-reading records already absorbed by a checkpoint idempotent.
	Version uint64 `json:"version"`

	EnqueuedAt time.Time `json:"enqueuedAt"`
	UpdatedAt  time.Time `json:"updatedAt"`
	// NotBefore gates re-dispatch while a failed job backs off.
	NotBefore time.Time `json:"notBefore,omitzero"`
}

// Terminal reports whether the job can no longer change state.
func (j *Job) Terminal() bool { return j.State == StateDone || j.State == StateDead }

// NewJob describes one job for Enqueue. ParentIndex links a child to an
// earlier member of the same batch (-1 for none): the whole batch commits
// as one journal record, so a sweep parent and its children are atomic —
// recovery sees either none of them or all of them.
type NewJob struct {
	Kind        string
	Spec        json.RawMessage
	ParentIndex int // index into the batch, or -1
	// Waiting enqueues the job in StateWaiting (an aggregate finalized via
	// Finalize) instead of StatePending.
	Waiting bool
}

// Event is one queue state transition, for observability sinks. Depths is
// a snapshot of the per-state job counts after the transition.
type Event struct {
	At       time.Time     `json:"at"`
	Kind     string        `json:"kind"`
	Job      string        `json:"job,omitempty"`
	JobKind  string        `json:"jobKind,omitempty"`
	Parent   string        `json:"parent,omitempty"`
	State    State         `json:"state,omitempty"`
	Attempts int           `json:"attempts,omitempty"`
	Err      string        `json:"error,omitempty"`
	Backoff  time.Duration `json:"backoffNs,omitempty"`
	Depths   map[State]int `json:"depths,omitempty"`
}

// Event kinds emitted by the queue.
const (
	EvEnqueued   = "enqueued"
	EvLeased     = "leased"
	EvCompleted  = "completed"
	EvFailed     = "failed"    // failed, will retry after backoff
	EvDead       = "dead"      // failed terminally (dead letter)
	EvReleased   = "released"  // lease handed back gracefully (drain)
	EvFinalized  = "finalized" // waiting aggregate resolved
	EvRecovered  = "recovered" // queue reopened from disk
	EvCheckpoint = "checkpoint"
)

// Options configures Open.
type Options struct {
	// Dir holds the queue's files (journal, checkpoint). Required.
	Dir string
	// NoSync disables the per-record fsync (benchmarks only: a crash may
	// then lose acknowledged records).
	NoSync bool
	// MaxAttempts is the failed-attempt budget before a job goes to the
	// dead-letter state (default 5).
	MaxAttempts int
	// RetryBase and RetryCap bound the exponential backoff between
	// attempts (defaults 500ms and 30s).
	RetryBase time.Duration
	RetryCap  time.Duration
	// CheckpointEvery compacts journal into checkpoint after this many
	// records (default 1024; negative disables auto-compaction).
	CheckpointEvery int
	// Seed drives the backoff jitter RNG, so retry schedules are
	// reproducible (default 1).
	Seed int64
	// CrashAfterRecords is the crash-injection hook behind the
	// kill-at-random-point soak: after this many journal records have been
	// appended since Open, every further append fails with ErrCrashPoint,
	// freezing the on-disk state at an exact record boundary as a hard
	// process stop would. 0 disables.
	CrashAfterRecords int64
	// Clock overrides wall time (tests). Default time.Now.
	Clock func() time.Time
	// Sink, when set, receives every queue Event. It is called with the
	// queue lock held and must not call back into the queue.
	Sink func(Event)
}

func (o *Options) fillDefaults() {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 500 * time.Millisecond
	}
	if o.RetryCap <= 0 {
		o.RetryCap = 30 * time.Second
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 1024
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
}

// RecoveryStats reports what Open found on disk.
type RecoveryStats struct {
	// FromCheckpoint is true when a valid checkpoint seeded the state.
	FromCheckpoint bool
	// JournalRecords is how many valid journal records were replayed.
	JournalRecords int64
	// DroppedBytes / DroppedRecords count the corrupt or torn journal
	// suffix that recovery discarded.
	DroppedBytes   int64
	DroppedRecords int64
	// RevertedLeases is how many jobs found leased on disk (their worker
	// died with the process) were returned to pending.
	RevertedLeases int
}

// Errors reported by queue operations.
var (
	ErrClosed    = errors.New("queue: closed")
	ErrNotFound  = errors.New("queue: no such job")
	ErrNotLeased = errors.New("queue: job not leased")
	ErrBadState  = errors.New("queue: operation invalid in this state")
)

const (
	journalName    = "queue.journal"
	checkpointName = "queue.checkpoint"
)

// entry is one journal or checkpoint record (a checkpoint holds one per
// job): a batch of job upserts. Snapshot is the older checkpoint layout,
// every job in one record, which Open still reads.
type entry struct {
	Jobs     []*Job `json:"jobs,omitempty"`
	Snapshot *entry `json:"snapshot,omitempty"`
}

// Queue is the durable job queue. All methods are safe for concurrent use.
type Queue struct {
	mu   sync.Mutex
	opts Options
	jnl  *journal
	rng  *rand.Rand

	jobs    map[string]*Job
	ready   readyHeap // pending jobs ordered by (NotBefore, Seq)
	nextSeq uint64
	depths  map[State]int

	recsSinceCheckpoint int64
	closed              bool
}

// Open loads (or creates) the queue in opts.Dir, replaying checkpoint and
// journal. Jobs found leased belong to a dead process and revert to
// pending, attempt-neutrally (the work was interrupted, not judged).
func Open(opts Options) (*Queue, RecoveryStats, error) {
	opts.fillDefaults()
	var stats RecoveryStats
	if opts.Dir == "" {
		return nil, stats, errors.New("queue: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, stats, err
	}
	q := &Queue{
		opts:   opts,
		rng:    rand.New(rand.NewSource(opts.Seed)),
		jobs:   make(map[string]*Job),
		depths: make(map[State]int),
	}

	// Seed state from the checkpoint. It is written whole and renamed into
	// place, and the journal it absorbed was reset, so a checkpoint that
	// does not read back whole is damage to report, not a tail to drop.
	ckPath := filepath.Join(opts.Dir, checkpointName)
	ck, err := recoverJournal(ckPath)
	if err == nil {
		_, err = q.replay(ck.Records)
		if err == nil && ck.DroppedBytes > 0 {
			err = fmt.Errorf("%w: %d bytes after the last whole record", ErrCorrupt, ck.DroppedBytes)
		}
		stats.FromCheckpoint = err == nil
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, stats, fmt.Errorf("queue: checkpoint %s: %w", ckPath, err)
	}

	// Replay the journal over it.
	jnlPath := filepath.Join(opts.Dir, journalName)
	rec, err := recoverJournal(jnlPath)
	switch {
	case errors.Is(err, os.ErrNotExist) || errors.Is(err, ErrCorrupt):
		// Fresh dir, or a journal whose header never made it to disk:
		// start a clean journal. Checkpointed state (if any) survives.
		if q.jnl, err = createJournal(jnlPath, !opts.NoSync); err != nil {
			return nil, stats, err
		}
	case err != nil:
		return nil, stats, err
	default:
		// A record that passed its CRC but does not decode was written by
		// something else entirely. It is dropped with every record after
		// it, as a torn tail is, so that appends land where replay stops.
		n, _ := q.replay(rec.Records)
		tail := rec.Tail
		for _, payload := range rec.Records[n:] {
			tail -= recordHeaderLen + int64(len(payload))
		}
		stats.JournalRecords = int64(n)
		stats.DroppedBytes = rec.DroppedBytes + rec.Tail - tail
		stats.DroppedRecords = rec.DroppedRecords + int64(len(rec.Records)-n)
		if q.jnl, err = openJournal(jnlPath, tail, !opts.NoSync); err != nil {
			return nil, stats, err
		}
	}

	q.jnl.failAfter = opts.CrashAfterRecords

	// Void leases held by the dead process.
	now := opts.Clock()
	var reverted []*Job
	for _, j := range q.jobs {
		if j.State == StateLeased {
			q.depths[j.State]--
			j.State = StatePending
			q.depths[j.State]++
			j.NotBefore = time.Time{}
			j.Crashes++
			j.Version++
			j.UpdatedAt = now
			reverted = append(reverted, j)
		}
	}
	sort.Slice(reverted, func(a, b int) bool { return reverted[a].Seq < reverted[b].Seq })
	if len(reverted) > 0 {
		if err := q.append(entry{Jobs: reverted}); err != nil {
			q.jnl.Close()
			return nil, stats, err
		}
	}
	stats.RevertedLeases = len(reverted)
	q.rebuildReady()
	q.emit(Event{Kind: EvRecovered, At: now})
	return q, stats, nil
}

// replay applies journal or checkpoint records in order, stopping at the
// first that does not decode, and reports how many it applied.
func (q *Queue) replay(records [][]byte) (int, error) {
	for i, payload := range records {
		var e entry
		err := json.Unmarshal(payload, &e)
		if e.Snapshot != nil {
			e.Jobs = append(e.Jobs, e.Snapshot.Jobs...)
		}
		if err != nil || slices.Contains(e.Jobs, nil) {
			return i, fmt.Errorf("%w: record %d does not decode to jobs", ErrCorrupt, i)
		}
		for _, j := range e.Jobs {
			q.applyJob(j)
		}
	}
	return len(records), nil
}

// applyJob upserts a replayed job if it is newer than what we have.
func (q *Queue) applyJob(j *Job) {
	cur, ok := q.jobs[j.ID]
	if ok && cur.Version >= j.Version {
		return
	}
	cp := *j
	if ok {
		q.depths[cur.State]--
	}
	q.jobs[cp.ID] = &cp
	q.depths[cp.State]++
	if cp.Seq >= q.nextSeq {
		q.nextSeq = cp.Seq + 1
	}
}

// rebuildReady reconstructs the pending heap from the job map.
func (q *Queue) rebuildReady() {
	q.ready = q.ready[:0]
	for _, j := range q.jobs {
		if j.State == StatePending {
			q.ready = append(q.ready, j)
		}
	}
	heap.Init(&q.ready)
}

// append journals one entry. Every mutation follows the append-before-
// install rule: it builds the new job versions on copies, appends them,
// and changes in-memory state (job, depths, ready heap) only once the
// append has succeeded. A failed operation therefore leaves nothing the
// journal did not receive: Get, Depths and the event stream all stay as
// they were. The mutation then calls compact.
func (q *Queue) append(e entry) error {
	payload, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if err := q.jnl.Append(payload); err != nil {
		return err
	}
	q.recsSinceCheckpoint++
	return nil
}

// install copies a journaled job version over the live job, maintaining
// the depth counts, and queues the job for dispatch when it became pending.
func (q *Queue) install(j, next *Job) {
	q.depths[j.State]--
	*j = *next
	q.depths[j.State]++
	if j.State == StatePending {
		heap.Push(&q.ready, j)
	}
}

// compact cuts the automatic checkpoint once CheckpointEvery records have
// accumulated. It runs after the mutation is installed, so the snapshot
// holds every record the checkpoint truncates away. It is best-effort: the
// mutation is already durable in the journal, a failed checkpoint leaves
// that journal intact, the next append retries it, and the explicit
// Checkpoint that a graceful drain cuts reports the error.
func (q *Queue) compact() {
	if q.opts.CheckpointEvery > 0 && q.recsSinceCheckpoint >= int64(q.opts.CheckpointEvery) {
		_ = q.checkpointLocked()
	}
}

// emit delivers an event (with depth snapshot) to the configured sink.
func (q *Queue) emit(ev Event) {
	if q.opts.Sink == nil {
		return
	}
	ev.Depths = map[State]int{}
	for _, s := range States {
		if n := q.depths[s]; n > 0 {
			ev.Depths[s] = n
		}
	}
	q.opts.Sink(ev)
}

func (q *Queue) eventFor(kind string, j *Job) Event {
	return Event{
		At:       q.opts.Clock(),
		Kind:     kind,
		Job:      j.ID,
		JobKind:  j.Kind,
		Parent:   j.Parent,
		State:    j.State,
		Attempts: j.Attempts,
		Err:      j.Error,
	}
}

// Enqueue atomically appends a batch of jobs (one journal record) and
// returns them in input order. ParentIndex must reference an earlier batch
// member or be negative.
func (q *Queue) Enqueue(batch ...NewJob) ([]*Job, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	now := q.opts.Clock()
	jobs := make([]*Job, len(batch))
	seq := q.nextSeq
	for i, nj := range batch {
		// A journal this queue did not write may name a job apart from its
		// Seq: skip an ID in use rather than overwrite that job.
		id := fmt.Sprintf("j%06d", seq)
		for q.jobs[id] != nil {
			seq++
			id = fmt.Sprintf("j%06d", seq)
		}
		j := &Job{
			ID:         id,
			Seq:        seq,
			Kind:       nj.Kind,
			Spec:       nj.Spec,
			State:      StatePending,
			Version:    1,
			EnqueuedAt: now,
			UpdatedAt:  now,
		}
		seq++
		if nj.Waiting {
			j.State = StateWaiting
		}
		if nj.ParentIndex >= 0 {
			if nj.ParentIndex >= i {
				return nil, fmt.Errorf("queue: batch job %d references parent index %d at or after itself", i, nj.ParentIndex)
			}
			j.Parent = jobs[nj.ParentIndex].ID
		}
		jobs[i] = j
	}
	if err := q.append(entry{Jobs: jobs}); err != nil {
		return nil, err
	}
	q.nextSeq = seq
	out := make([]*Job, len(jobs))
	for i, j := range jobs {
		q.jobs[j.ID] = j
		q.depths[j.State]++
		if j.State == StatePending {
			heap.Push(&q.ready, j)
		}
		out[i] = snapshotJob(j)
	}
	q.compact()
	for _, j := range jobs {
		q.emit(q.eventFor(EvEnqueued, j))
	}
	return out, nil
}

// Lease hands the oldest ready pending job to the caller, which holds it
// until it calls Complete, Fail or Release, or until the process dies and
// Open reverts it. ok is false when nothing is ready; retryAt is then the
// earliest NotBefore among backing-off jobs (zero when the queue has no
// pending work at all).
func (q *Queue) Lease() (job *Job, ok bool, retryAt time.Time, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, false, time.Time{}, ErrClosed
	}
	now := q.opts.Clock()
	for q.ready.Len() > 0 {
		head := q.ready[0]
		if head.State != StatePending {
			heap.Pop(&q.ready) // stale heap entry
			continue
		}
		if head.NotBefore.After(now) {
			return nil, false, head.NotBefore, nil
		}
		next := *head
		next.State = StateLeased
		next.NotBefore = time.Time{}
		next.Version++
		next.UpdatedAt = now
		if err := q.append(entry{Jobs: []*Job{&next}}); err != nil {
			return nil, false, time.Time{}, err
		}
		heap.Pop(&q.ready)
		q.install(head, &next)
		q.compact()
		q.emit(q.eventFor(EvLeased, head))
		return snapshotJob(head), true, time.Time{}, nil
	}
	return nil, false, time.Time{}, nil
}

// Complete marks a leased job done with the given result.
func (q *Queue) Complete(id string, result json.RawMessage) error {
	return q.settle(id, func(j *Job, now time.Time) string {
		j.State = StateDone
		j.Result = result
		j.Error = ""
		return EvCompleted
	})
}

// Fail records a failed attempt on a leased job: the job returns to
// pending after an exponential, seeded-jitter backoff, or moves to the
// dead-letter state once MaxAttempts is exhausted.
func (q *Queue) Fail(id, cause string) error {
	return q.settle(id, func(j *Job, now time.Time) string {
		j.Attempts++
		j.Error = cause
		if j.Attempts >= q.opts.MaxAttempts {
			j.State = StateDead
			return EvDead
		}
		j.State = StatePending
		j.NotBefore = now.Add(q.backoff(j.Attempts))
		return EvFailed
	})
}

// Release hands a lease back without a verdict (graceful drain): the job
// is immediately pending again and the attempt budget is untouched.
func (q *Queue) Release(id string) error {
	return q.settle(id, func(j *Job, now time.Time) string {
		j.State = StatePending
		j.NotBefore = time.Time{}
		return EvReleased
	})
}

// settle is the shared leased-job transition: check the job is leased,
// apply fn to a copy, journal the copy, install it, emit.
func (q *Queue) settle(id string, fn func(j *Job, now time.Time) string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	j, ok := q.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if j.State != StateLeased {
		return ErrNotLeased
	}
	now := q.opts.Clock()
	next := *j
	kind := fn(&next, now)
	next.Version++
	next.UpdatedAt = now
	if err := q.append(entry{Jobs: []*Job{&next}}); err != nil {
		return err
	}
	q.install(j, &next)
	q.compact()
	q.emit(q.eventFor(kind, j))
	return nil
}

// backoff computes the delay before attempt+1: RetryBase·2^(attempts-1),
// capped at RetryCap, scaled by a seeded jitter factor in [0.5, 1.0] so
// synchronized failures do not retry in lockstep.
func (q *Queue) backoff(attempts int) time.Duration {
	d := q.opts.RetryBase
	for i := 1; i < attempts && d < q.opts.RetryCap; i++ {
		d *= 2
	}
	if d > q.opts.RetryCap {
		d = q.opts.RetryCap
	}
	return time.Duration(float64(d) * (0.5 + 0.5*q.rng.Float64()))
}

// Finalize resolves a waiting aggregate (errMsg empty: done with result;
// otherwise dead with that error). It is also accepted for pending jobs,
// letting an operator cancel queued work.
func (q *Queue) Finalize(id string, result json.RawMessage, errMsg string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	j, ok := q.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if j.State != StateWaiting && j.State != StatePending {
		return fmt.Errorf("%w: finalize of %s job %s", ErrBadState, j.State, id)
	}
	next := *j
	if errMsg == "" {
		next.State = StateDone
		next.Result = result
		next.Error = ""
	} else {
		next.State = StateDead
		next.Error = errMsg
	}
	next.Version++
	next.UpdatedAt = q.opts.Clock()
	if err := q.append(entry{Jobs: []*Job{&next}}); err != nil {
		return err
	}
	q.install(j, &next)
	q.compact()
	q.emit(q.eventFor(EvFinalized, j))
	return nil
}

// Get returns a copy of the job.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *snapshotJob(j), true
}

// List returns copies of every job, in enqueue order.
func (q *Queue) List() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		out = append(out, *snapshotJob(j))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Children returns copies of parent's child jobs, in enqueue order.
func (q *Queue) Children(parent string) []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []Job
	for _, j := range q.jobs {
		if j.Parent == parent {
			out = append(out, *snapshotJob(j))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Depths reports the per-state job counts.
func (q *Queue) Depths() map[State]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[State]int, len(q.depths))
	for s, n := range q.depths {
		if n > 0 {
			out[s] = n
		}
	}
	return out
}

// Checkpoint compacts the queue: every job is written, one record each
// in enqueue order, to a temporary file, which is fsync'd and atomically
// renamed over the checkpoint; then the directory entry is fsync'd and the
// journal truncated back to a bare header. No record grows with the number
// of jobs. A crash at any point leaves either the old (checkpoint,
// journal) pair or the new checkpoint with a journal whose replay is
// idempotent over it.
func (q *Queue) Checkpoint() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	return q.checkpointLocked()
}

func (q *Queue) checkpointLocked() error {
	jobs := make([]*Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Seq < jobs[b].Seq })
	final := filepath.Join(q.opts.Dir, checkpointName)
	tmp := final + ".tmp"
	// One fsync at Close covers every record, not one per job.
	ck, err := createJournal(tmp, false)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		payload, err := json.Marshal(entry{Jobs: []*Job{j}})
		if err == nil {
			err = ck.Append(payload)
		}
		if err != nil {
			ck.Close()
			return err
		}
	}
	ck.sync = !q.opts.NoSync
	if err := ck.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	if !q.opts.NoSync {
		if err := syncDir(final); err != nil {
			return err
		}
	}
	if err := q.jnl.Reset(); err != nil {
		return err
	}
	q.recsSinceCheckpoint = 0
	q.emit(Event{Kind: EvCheckpoint, At: q.opts.Clock()})
	return nil
}

// Close flushes and closes the journal. It does not checkpoint; graceful
// shutdown paths call Checkpoint first.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	return q.jnl.Close()
}

// snapshotJob copies a job, deep enough that callers cannot alias the
// queue's raw message buffers.
func snapshotJob(j *Job) *Job {
	cp := *j
	cp.Spec = append(json.RawMessage(nil), j.Spec...)
	cp.Result = append(json.RawMessage(nil), j.Result...)
	return &cp
}

// readyHeap orders pending jobs by (NotBefore, Seq).
type readyHeap []*Job

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(a, b int) bool {
	if !h[a].NotBefore.Equal(h[b].NotBefore) {
		return h[a].NotBefore.Before(h[b].NotBefore)
	}
	return h[a].Seq < h[b].Seq
}
func (h readyHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *readyHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *readyHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
