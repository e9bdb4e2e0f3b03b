package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gangsched "repro"
	"repro/internal/queue"
)

// fastSpec is a sub-second experiment: two tiny custom jobs over-committing
// an 8 MB node, exercising the full paging policy stack.
func fastSpec(seed int64) gangsched.SpecConfig {
	return gangsched.SpecConfig{
		Seed:     seed,
		Nodes:    1,
		MemoryMB: 8,
		Policy:   "so/ao/ai/bg",
		Quantum:  "1s",
		Jobs: []gangsched.JobConfig{
			{Name: "a", FootprintMB: 4, Iterations: 40, TouchCostUs: 50},
			{Name: "b", FootprintMB: 4, Iterations: 40, TouchCostUs: 50},
		},
	}
}

// testConfig returns fast queue timings over a fresh state dir.
func testConfig(t *testing.T, dir string) Config {
	return Config{
		Dir:       dir,
		Workers:   2,
		RetryBase: time.Millisecond,
		RetryCap:  10 * time.Millisecond,
		Logf:      t.Logf,
	}
}

func start(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return s
}

func submit(t *testing.T, s *Server, req submitRequest) submitResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+s.Addr()+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d: %s", resp.StatusCode, payload)
	}
	var out submitResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatalf("submit response %q: %v", payload, err)
	}
	return out
}

// waitTerminal polls the queue until the job is done or dead.
func waitTerminal(t *testing.T, q *queue.Queue, id string, timeout time.Duration) queue.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j, ok := q.Get(id)
		if ok && j.Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after %v (state %s)", id, timeout, j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestSubmitRunCompletesWithRealResult(t *testing.T) {
	s := start(t, testConfig(t, t.TempDir()))
	defer s.Kill()

	resp := submit(t, s, submitRequest{Kind: "run", Spec: ptr(fastSpec(7))})
	job := waitTerminal(t, s.Queue(), resp.ID, 30*time.Second)
	if job.State != queue.StateDone {
		t.Fatalf("job %s: state %s, error %q", job.ID, job.State, job.Error)
	}

	// The served result must be byte-identical to a direct run of the
	// same spec: the run is a pure function of its spec.
	spec, err := fastSpec(7).Spec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := gangsched.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(runDoc{Result: res})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(job.Result, want) {
		t.Fatalf("served result differs from direct run:\n%s\nvs\n%s", job.Result, want)
	}
	var doc runDoc
	if err := json.Unmarshal(job.Result, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Result.Makespan <= 0 || !doc.Result.Jobs[0].Done {
		t.Fatalf("implausible result: %+v", doc.Result)
	}

	// GET /jobs/{id} serves the result too.
	hr, err := http.Get("http://" + s.Addr() + "/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != 200 || !bytes.Contains(body, []byte(`"makespan"`)) && !bytes.Contains(body, []byte(`"Makespan"`)) {
		t.Fatalf("GET /jobs/%s: %d %s", job.ID, hr.StatusCode, body)
	}

	// /metrics exposes queue depth and event counters.
	mr, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{"gangsimd_queue_depth", "gangsimd_queue_events_total", "gangsimd_run_seconds"} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Fatalf("/metrics missing %s:\n%s", want, prom)
		}
	}
}

func ptr[T any](v T) *T { return &v }

func TestSweepAggregatesChildResultsInOrder(t *testing.T) {
	s := start(t, testConfig(t, t.TempDir()))
	defer s.Kill()

	resp := submit(t, s, submitRequest{
		Kind:   "sweep",
		Specs:  []gangsched.SpecConfig{fastSpec(1), fastSpec(2)},
		Labels: []string{"one", "two"},
	})
	if len(resp.Jobs) != 2 {
		t.Fatalf("sweep children: %v", resp.Jobs)
	}
	parent := waitTerminal(t, s.Queue(), resp.ID, 30*time.Second)
	if parent.State != queue.StateDone {
		t.Fatalf("parent %s: %s (%s)", parent.ID, parent.State, parent.Error)
	}
	var docs []runDoc
	if err := json.Unmarshal(parent.Result, &docs); err != nil {
		t.Fatalf("parent result %q: %v", parent.Result, err)
	}
	if len(docs) != 2 || docs[0].Label != "one" || docs[1].Label != "two" {
		t.Fatalf("aggregate order wrong: %+v", docs)
	}
	// The aggregate is exactly the children's results, in enqueue order.
	var fromChildren []json.RawMessage
	for _, c := range s.Queue().Children(parent.ID) {
		if c.State != queue.StateDone {
			t.Fatalf("child %s: %s", c.ID, c.State)
		}
		fromChildren = append(fromChildren, c.Result)
	}
	want, _ := json.Marshal(fromChildren)
	if !bytes.Equal(parent.Result, want) {
		t.Fatalf("aggregate is not the ordered child results:\n%s\nvs\n%s", parent.Result, want)
	}
}

func TestFailingJobRetriesThenDeadLettersParent(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.MaxAttempts = 2
	boom := errors.New("synthetic failure")
	cfg.Exec = func(ctx context.Context, job queue.Job) (json.RawMessage, error) {
		return nil, boom
	}
	s := start(t, cfg)
	defer s.Kill()

	resp := submit(t, s, submitRequest{Kind: "sweep", Specs: []gangsched.SpecConfig{fastSpec(1)}})
	child := waitTerminal(t, s.Queue(), resp.Jobs[0], 30*time.Second)
	if child.State != queue.StateDead {
		t.Fatalf("child: %s", child.State)
	}
	if child.Attempts != 2 {
		t.Fatalf("child attempts = %d, want 2 (bounded retry)", child.Attempts)
	}
	if !strings.Contains(child.Error, "synthetic failure") {
		t.Fatalf("child error = %q", child.Error)
	}
	parent := waitTerminal(t, s.Queue(), resp.ID, 30*time.Second)
	if parent.State != queue.StateDead || !strings.Contains(parent.Error, child.ID) {
		t.Fatalf("parent = %s (%q), want dead blaming %s", parent.State, parent.Error, child.ID)
	}
}

// TestPanickingRunFailsItsAttempt: a panic in the executor is a failed
// attempt at once, not a lease left to lapse, and the run still leaves the
// active-runs gauge and the run-seconds histogram.
func TestPanickingRunFailsItsAttempt(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.MaxAttempts = 3
	cfg.Exec = func(ctx context.Context, job queue.Job) (json.RawMessage, error) {
		panic("boom")
	}
	s := start(t, cfg)
	defer s.Kill()

	resp := submit(t, s, submitRequest{Kind: "run", Spec: ptr(fastSpec(1))})
	job := waitTerminal(t, s.Queue(), resp.ID, 5*time.Second)
	if job.State != queue.StateDead || job.Attempts != 3 || !strings.Contains(job.Error, "panic: boom") {
		t.Fatalf("job %s: %s after %d attempts, error %q; want dead after 3 with panic: boom",
			job.ID, job.State, job.Attempts, job.Error)
	}
	mr, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{"\ngangsimd_runs_active 0\n", "\ngangsimd_run_seconds_count 3\n"} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Fatalf("/metrics lacks %q:\n%s", strings.TrimSpace(want), prom)
		}
	}
}

// TestUnjournalableResultFailsItsAttempt: a result over the journal's
// 16 MiB record cap fails its attempt, so the run dead-letters after
// MaxAttempts and its sweep parent finalizes, instead of the job staying
// leased with no worker holding it.
func TestUnjournalableResultFailsItsAttempt(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.MaxAttempts = 2
	huge := bytes.Repeat([]byte("x"), 17<<20)
	huge[0], huge[len(huge)-1] = '"', '"'
	cfg.Exec = func(ctx context.Context, job queue.Job) (json.RawMessage, error) {
		return huge, nil
	}
	s := start(t, cfg)
	defer s.Kill()

	resp := submit(t, s, submitRequest{Kind: "sweep", Specs: []gangsched.SpecConfig{fastSpec(1)}})
	child := waitTerminal(t, s.Queue(), resp.Jobs[0], 10*time.Second)
	if child.State != queue.StateDead || child.Attempts != 2 || !strings.Contains(child.Error, "complete: ") {
		t.Fatalf("child %s: %s after %d attempts, error %q; want dead after 2 with complete: ...",
			child.ID, child.State, child.Attempts, child.Error)
	}
	parent := waitTerminal(t, s.Queue(), resp.ID, 10*time.Second)
	if parent.State != queue.StateDead || !strings.Contains(parent.Error, child.ID) {
		t.Fatalf("parent = %s (%q), want dead blaming %s", parent.State, parent.Error, child.ID)
	}
}

// TestSweepRunsOnEveryIdleWorker: the runs of one sweep start together on
// idle workers. Each run waits until it sees the other.
func TestSweepRunsOnEveryIdleWorker(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.MaxAttempts = 1
	var mu sync.Mutex
	started := 0
	both := make(chan struct{})
	cfg.Exec = func(ctx context.Context, job queue.Job) (json.RawMessage, error) {
		mu.Lock()
		if started++; started == 2 {
			close(both)
		}
		mu.Unlock()
		select {
		case <-both:
			return json.RawMessage(`{}`), nil
		case <-time.After(5 * time.Second):
			return nil, errors.New("ran alone for 5s: the other run never started")
		}
	}
	s := start(t, cfg)
	defer s.Kill()

	resp := submit(t, s, submitRequest{Kind: "sweep", Specs: []gangsched.SpecConfig{fastSpec(1), fastSpec(2)}})
	if parent := waitTerminal(t, s.Queue(), resp.ID, 30*time.Second); parent.State != queue.StateDone {
		t.Fatalf("parent: %s (%s)", parent.State, parent.Error)
	}
}

// TestRetryRunsBesideABlockedRun: while one worker is held by a run, the
// other retries a failed run at its backoff and completes it.
func TestRetryRunsBesideABlockedRun(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.RetryBase, cfg.RetryCap = time.Millisecond, time.Millisecond
	release := make(chan struct{})
	var failed atomic.Bool
	cfg.Exec = func(ctx context.Context, job queue.Job) (json.RawMessage, error) {
		var p runPayload
		if err := json.Unmarshal(job.Spec, &p); err != nil {
			return nil, err
		}
		if p.Label == "blocked" {
			select {
			case <-release:
				return json.RawMessage(`{}`), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if !failed.Swap(true) {
			return nil, errors.New("first attempt fails")
		}
		return json.RawMessage(`{}`), nil
	}
	s := start(t, cfg)
	defer s.Kill()

	resp := submit(t, s, submitRequest{
		Kind:   "sweep",
		Specs:  []gangsched.SpecConfig{fastSpec(1), fastSpec(2)},
		Labels: []string{"blocked", "retried"},
	})
	retried := waitTerminal(t, s.Queue(), resp.Jobs[1], 10*time.Second)
	if retried.State != queue.StateDone || retried.Attempts != 1 {
		t.Fatalf("retried run: %s after %d failed attempts, want done after 1", retried.State, retried.Attempts)
	}
	if blocked, _ := s.Queue().Get(resp.Jobs[0]); blocked.State != queue.StateLeased {
		t.Fatalf("blocked run is %s, want still leased", blocked.State)
	}
	close(release)
	if parent := waitTerminal(t, s.Queue(), resp.ID, 10*time.Second); parent.State != queue.StateDone {
		t.Fatalf("parent: %s (%s)", parent.State, parent.Error)
	}
}

func TestMatrixSubmissionExpandsPolicyLadder(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	// Matrix points are full-size paper experiments (minutes of sim time);
	// stub the executor — expansion and labeling are what is under test.
	cfg.Exec = func(ctx context.Context, job queue.Job) (json.RawMessage, error) {
		var p runPayload
		if err := json.Unmarshal(job.Spec, &p); err != nil {
			return nil, err
		}
		if _, err := p.Spec.Spec(); err != nil {
			return nil, fmt.Errorf("matrix child spec invalid: %w", err)
		}
		return json.Marshal(runDoc{Label: p.Label})
	}
	s := start(t, cfg)
	defer s.Kill()

	resp := submit(t, s, submitRequest{Kind: "matrix", App: "LU", Class: "B", Ranks: 1, Seed: 1})
	if len(resp.Jobs) != 7 { // batch baseline + 6-policy ladder
		t.Fatalf("matrix expanded to %d jobs, want 7", len(resp.Jobs))
	}
	parent := waitTerminal(t, s.Queue(), resp.ID, 30*time.Second)
	if parent.State != queue.StateDone {
		t.Fatalf("parent: %s (%s)", parent.State, parent.Error)
	}
	var docs []runDoc
	if err := json.Unmarshal(parent.Result, &docs); err != nil {
		t.Fatal(err)
	}
	wantLabels := []string{"batch", "orig", "ai", "so", "so/ao", "so/ao/bg", "so/ao/ai/bg"}
	for i, w := range wantLabels {
		if docs[i].Label != w {
			t.Fatalf("matrix row %d label = %q, want %q", i, docs[i].Label, w)
		}
	}
}

// TestGracefulDrainReleasesWorkAndResumes is the drain contract: a drain
// with expired grace cancels in-flight runs, hands every lease back
// attempt-neutrally, leaves a consistent journal, and a restarted server
// finishes the remaining work.
func TestGracefulDrainReleasesWorkAndResumes(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, dir)
	cfg.Workers = 1
	started := make(chan string, 8)
	cfg.Exec = func(ctx context.Context, job queue.Job) (json.RawMessage, error) {
		started <- job.ID
		<-ctx.Done() // hold the worker until drain cancels
		return nil, ctx.Err()
	}
	s := start(t, cfg)

	resp := submit(t, s, submitRequest{
		Kind:  "sweep",
		Specs: []gangsched.SpecConfig{fastSpec(1), fastSpec(2), fastSpec(3)},
	})
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no job started")
	}

	// Grace already expired: drain must cancel the held run, not wait.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// The journal must reopen cleanly with every run job pending again and
	// no attempts consumed (interrupted, not judged).
	q, stats, err := queue.Open(queue.Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	if stats.DroppedBytes != 0 || stats.RevertedLeases != 0 {
		t.Fatalf("drain left a dirty journal: %+v", stats)
	}
	for _, j := range q.List() {
		if j.Kind != "run" {
			continue
		}
		if j.State != queue.StatePending {
			t.Fatalf("job %s state %s after drain, want pending", j.ID, j.State)
		}
		if j.Attempts != 0 {
			t.Fatalf("job %s consumed %d attempts during drain", j.ID, j.Attempts)
		}
	}
	q.Close()

	// A restarted server picks the released work back up and finishes.
	cfg2 := testConfig(t, dir)
	cfg2.Exec = nil // real executor
	s2 := start(t, cfg2)
	defer s2.Kill()
	parent := waitTerminal(t, s2.Queue(), resp.ID, 60*time.Second)
	if parent.State != queue.StateDone {
		t.Fatalf("resumed sweep: %s (%s)", parent.State, parent.Error)
	}
	var docs []runDoc
	if err := json.Unmarshal(parent.Result, &docs); err != nil || len(docs) != 3 {
		t.Fatalf("resumed aggregate: %v %s", err, parent.Result)
	}
}

func TestDrainingServerRefusesSubmissions(t *testing.T) {
	s := start(t, testConfig(t, t.TempDir()))
	drain(t, s)
	body, _ := json.Marshal(submitRequest{Kind: "run", Spec: ptr(fastSpec(7))})
	resp, err := http.Post("http://"+s.Addr()+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		// The listener may already be down, which is an equally firm no.
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST /jobs = %d, want 503", resp.StatusCode)
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	s := start(t, testConfig(t, t.TempDir()))
	defer s.Kill()
	bad := fastSpec(7)
	bad.Policy = "not-a-policy"
	body, _ := json.Marshal(submitRequest{Kind: "run", Spec: &bad})
	resp, err := http.Post("http://"+s.Addr()+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec = %d, want 400", resp.StatusCode)
	}
	if jobs := s.Queue().List(); len(jobs) != 0 {
		t.Fatalf("invalid spec enqueued %d jobs", len(jobs))
	}
}

func TestEventsStreamDeliversTransitions(t *testing.T) {
	s := start(t, testConfig(t, t.TempDir()))
	defer s.Kill()

	resp := submit(t, s, submitRequest{Kind: "run", Spec: ptr(fastSpec(7))})
	waitTerminal(t, s.Queue(), resp.ID, 30*time.Second)

	// The replay ring serves the full history to a late subscriber.
	hr, err := http.Get("http://" + s.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	seen := map[string]bool{}
	dec := json.NewDecoder(hr.Body)
	deadline := time.After(10 * time.Second)
	for !seen[queue.EvCompleted] {
		select {
		case <-deadline:
			t.Fatalf("event stream never showed completion; saw %v", seen)
		default:
		}
		var ev queue.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("decoding event stream: %v (saw %v)", err, seen)
		}
		seen[ev.Kind] = true
	}
	for _, want := range []string{queue.EvRecovered, queue.EvEnqueued, queue.EvLeased, queue.EvCompleted} {
		if !seen[want] {
			t.Fatalf("event stream missing %q; saw %v", want, seen)
		}
	}
}
