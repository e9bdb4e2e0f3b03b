// Package serve is gangsimd's service layer: a persistent HTTP/JSON server
// that accepts simulation and sweep jobs, records them in a durable queue
// (internal/queue), runs them on a fixed set of worker goroutines that
// lease straight from that queue, and streams results, metrics and queue
// events back out.
//
// The server is built to be killed: every accepted job is journaled before
// the HTTP response, a worker holds its lease until it settles the job or
// the process dies, leases revert on restart, and completed runs are
// skipped on re-dispatch because their results are already on disk. A
// panicking run is a failed attempt. A SIGTERM drains gracefully — intake
// stops, in-flight runs get a grace period, leases are handed back
// verdict-free, and the queue is compacted — so `kill` followed by a
// restart resumes exactly where the previous process stopped.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	gangsched "repro"
	"repro/internal/expt"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
)

// Exec runs one leased job to completion and returns its result document.
// A nil Config.Exec runs the simulator; tests substitute failing or
// sleeping executors.
type Exec func(ctx context.Context, job queue.Job) (json.RawMessage, error)

// Config configures Start.
type Config struct {
	// Dir is the durable state directory (journal + checkpoint). Required.
	Dir string
	// StoreDir roots the indexed binary trace store that persists each
	// event-capturing run's history (default: Dir/store). GET /events with
	// a run parameter serves bounded range queries against it.
	StoreDir string
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// Workers bounds concurrent simulation runs (0 = one per CPU).
	Workers int

	// Queue tuning, passed through to queue.Options (zero = its defaults).
	MaxAttempts       int
	RetryBase         time.Duration
	RetryCap          time.Duration
	CheckpointEvery   int
	NoSync            bool
	Seed              int64
	CrashAfterRecords int64

	// Exec overrides the job executor (default: the simulator).
	Exec Exec
	// Clock overrides wall time for the queue (tests).
	Clock func() time.Time
	// Logf receives operational log lines (default: discarded).
	Logf func(format string, args ...any)
}

// Server is a running gangsimd instance.
type Server struct {
	cfg   Config
	q     *queue.Queue
	store *store.Store
	srv   *http.Server
	ln    net.Listener
	exec  Exec
	logf  func(string, ...any)

	runCtx    context.Context
	runCancel context.CancelFunc
	// wake holds at most one token for an idle worker: a submission puts
	// it there, and so does every lease. stop closes, once, when drain or
	// kill begins.
	wake     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	workers  sync.WaitGroup

	mu sync.Mutex // serializes settleParent

	// metricsMu guards the registry: obs metrics are plain values (the
	// simulator updates them single-threaded), so the server serializes
	// its own writers and the /metrics reader.
	metricsMu sync.Mutex
	reg       *obs.Registry
	depth     map[queue.State]*obs.Gauge
	evTotal   map[string]*obs.Counter
	active    *obs.Gauge
	runSec    *obs.Histogram

	hub *live.Hub[queue.Event]

	crashOnce sync.Once
	crashed   chan struct{}
}

// Start opens (or resumes) the queue in cfg.Dir, recovers any interrupted
// state, and begins listening and dispatching.
func Start(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s := &Server{
		cfg:     cfg,
		exec:    cfg.Exec,
		logf:    cfg.Logf,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		crashed: make(chan struct{}),
		hub:     live.NewHub[queue.Event](1024),
	}
	if s.exec == nil {
		s.exec = func(ctx context.Context, job queue.Job) (json.RawMessage, error) {
			return runExec(ctx, job, s.store)
		}
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	s.buildMetrics()

	storeDir := cfg.StoreDir
	if storeDir == "" {
		storeDir = filepath.Join(cfg.Dir, "store")
	}
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, err
	}
	s.store = st

	q, stats, err := queue.Open(queue.Options{
		Dir:               cfg.Dir,
		NoSync:            cfg.NoSync,
		MaxAttempts:       cfg.MaxAttempts,
		RetryBase:         cfg.RetryBase,
		RetryCap:          cfg.RetryCap,
		CheckpointEvery:   cfg.CheckpointEvery,
		Seed:              cfg.Seed,
		CrashAfterRecords: cfg.CrashAfterRecords,
		Clock:             cfg.Clock,
		Sink:              s.onQueueEvent,
	})
	if err != nil {
		return nil, err
	}
	s.q = q
	s.logf("queue open: checkpoint=%v journalRecords=%d revertedLeases=%d droppedBytes=%d",
		stats.FromCheckpoint, stats.JournalRecords, stats.RevertedLeases, stats.DroppedBytes)

	// Settle aggregates whose children all finished before the previous
	// process died: their Finalize never landed, so re-derive it.
	for _, j := range q.List() {
		if j.State == queue.StateWaiting {
			s.settleParent(j.ID)
		}
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		q.Close()
		return nil, err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.routes()}
	go s.srv.Serve(ln)

	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	n := runner.Workers(cfg.Workers)
	s.workers.Add(n)
	for range n {
		go s.work()
	}
	s.logf("listening on %s (state in %s)", ln.Addr(), cfg.Dir)
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Queue exposes the underlying queue for inspection in tests.
func (s *Server) Queue() *queue.Queue { return s.q }

// Crashed is closed when the injected crash point fires (tests only).
func (s *Server) Crashed() <-chan struct{} { return s.crashed }

// Drain gracefully shuts the server down: intake stops (POST returns 503),
// the workers stop leasing, in-flight runs get until ctx's deadline to
// finish (then are cancelled and their leases handed back verdict-free),
// the queue is compacted and closed, and the HTTP listener shuts down.
// After Drain returns the state directory is consistent and a new Start
// resumes the remaining work.
func (s *Server) Drain(ctx context.Context) error {
	if !s.halt() {
		return errors.New("serve: already draining")
	}
	s.logf("draining: intake stopped, waiting for in-flight runs")

	// Grace timer: when ctx expires, cancel in-flight runs so their
	// workers release promptly instead of finishing multi-minute sims.
	graceUp := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.logf("drain grace expired: cancelling in-flight runs")
			s.runCancel()
		case <-graceUp:
		}
	}()
	s.workers.Wait()
	close(graceUp)
	s.runCancel()

	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil && !errors.Is(err, queue.ErrCrashPoint) && !errors.Is(err, queue.ErrClosed) {
			firstErr = err
		}
	}
	keep(s.q.Checkpoint())
	keep(s.q.Close())
	s.hub.Close()
	shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	keep(s.srv.Shutdown(shCtx))
	s.logf("drained")
	return firstErr
}

// Kill hard-stops the server without checkpointing or waiting out a grace
// period — the shutdown a crash test wants.
func (s *Server) Kill() {
	first := s.halt()
	s.runCancel()
	if !first {
		return
	}
	s.workers.Wait()
	s.q.Close()
	s.hub.Close()
	s.srv.Close()
}

// halt stops intake and leasing, and wakes every idle worker to exit. It
// reports false when drain or kill had already begun.
func (s *Server) halt() (first bool) {
	s.stopOnce.Do(func() {
		close(s.stop)
		first = true
	})
	return first
}

func (s *Server) isDraining() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// noteCrash handles ErrCrashPoint from any queue operation: the on-disk
// state is frozen at the injected record boundary, so the process must act
// dead from here on.
func (s *Server) noteCrash(err error) bool {
	if !errors.Is(err, queue.ErrCrashPoint) {
		return false
	}
	s.crashOnce.Do(func() {
		s.logf("crash point hit: freezing")
		close(s.crashed)
		s.runCancel()
	})
	return true
}

// ---- metrics ----

func (s *Server) buildMetrics() {
	s.reg = obs.NewRegistry()
	s.depth = make(map[queue.State]*obs.Gauge, len(queue.States))
	for _, st := range queue.States {
		s.depth[st] = s.reg.Gauge("gangsimd_queue_depth",
			"jobs currently in each queue state", obs.Labels{"state": string(st)})
	}
	s.evTotal = make(map[string]*obs.Counter)
	for _, kind := range []string{
		queue.EvEnqueued, queue.EvLeased, queue.EvCompleted, queue.EvFailed,
		queue.EvDead, queue.EvReleased, queue.EvFinalized,
		queue.EvRecovered, queue.EvCheckpoint,
	} {
		s.evTotal[kind] = s.reg.Counter("gangsimd_queue_events_total",
			"queue state transitions by kind", obs.Labels{"kind": kind})
	}
	s.active = s.reg.Gauge("gangsimd_runs_active", "simulation runs executing right now", nil)
	s.runSec = s.reg.Histogram("gangsimd_run_seconds", "wall-clock run duration",
		nil, []float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600})
}

// onQueueEvent is the queue's Sink: it updates the metric registry and
// fans the event out to /events subscribers. Called with the queue lock
// held, so it must not call back into the queue.
func (s *Server) onQueueEvent(ev queue.Event) {
	s.metricsMu.Lock()
	if c, ok := s.evTotal[ev.Kind]; ok {
		c.Inc()
	}
	for _, st := range queue.States {
		s.depth[st].Set(float64(ev.Depths[st]))
	}
	s.metricsMu.Unlock()
	s.hub.Emit(ev)
}

// ---- HTTP ----

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// submitRequest is the POST /jobs body. Kind selects the shape:
//
//   - "run" (default): Spec is one experiment; one durable job.
//   - "sweep": Specs is a list of experiments; a waiting parent plus one
//     child per spec, committed atomically, the parent's result being the
//     ordered list of child results.
//   - "matrix": App/Class/Ranks name a modelled workload; expands to the
//     paper's §4.3 policy matrix (batch baseline + policy ladder) as a
//     sweep.
//
// Events captures each run's observability event log in the trace store;
// GET /jobs/{id} serves it inside the run's result document and
// /events?run= serves time and node windows of it.
type submitRequest struct {
	Kind   string                 `json:"kind,omitempty"`
	Spec   *gangsched.SpecConfig  `json:"spec,omitempty"`
	Specs  []gangsched.SpecConfig `json:"specs,omitempty"`
	Labels []string               `json:"labels,omitempty"`
	App    string                 `json:"app,omitempty"`
	Class  string                 `json:"class,omitempty"`
	Ranks  int                    `json:"ranks,omitempty"`
	Seed   int64                  `json:"seed,omitempty"`
	Events bool                   `json:"events,omitempty"`
}

// runPayload is the durable spec of one "run" job.
type runPayload struct {
	Label  string               `json:"label,omitempty"`
	Spec   gangsched.SpecConfig `json:"spec"`
	Events bool                 `json:"events,omitempty"`
}

// runDoc is the result document of one "run" job. The queue stores it
// without Events; GET /jobs/{id} fills them in from the trace store.
type runDoc struct {
	Label  string            `json:"label,omitempty"`
	Result metrics.RunResult `json:"result"`
	Events []obs.Event       `json:"events,omitempty"`
}

type submitResponse struct {
	ID   string   `json:"id"`
	Jobs []string `json:"jobs,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req submitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	batch, err := buildBatch(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	jobs, err := s.q.Enqueue(batch...)
	if err != nil {
		if s.noteCrash(err) || errors.Is(err, queue.ErrClosed) {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.poke()
	resp := submitResponse{ID: jobs[0].ID}
	for _, j := range jobs[1:] {
		resp.Jobs = append(resp.Jobs, j.ID)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(resp)
}

// buildBatch expands a submission into its atomic queue batch.
func buildBatch(req submitRequest) ([]queue.NewJob, error) {
	mustPayload := func(p runPayload) json.RawMessage {
		raw, err := json.Marshal(p)
		if err != nil {
			panic(err) // runPayload has no unmarshalable fields
		}
		return raw
	}
	validate := func(sc gangsched.SpecConfig) error {
		spec, err := sc.Spec()
		if err != nil {
			return err
		}
		return spec.Validate()
	}
	switch req.Kind {
	case "", "run":
		if req.Spec == nil {
			return nil, errors.New("run submission needs a spec")
		}
		if err := validate(*req.Spec); err != nil {
			return nil, err
		}
		return []queue.NewJob{{
			Kind:        "run",
			Spec:        mustPayload(runPayload{Spec: *req.Spec, Events: req.Events}),
			ParentIndex: -1,
		}}, nil
	case "sweep":
		if len(req.Specs) == 0 {
			return nil, errors.New("sweep submission needs specs")
		}
		if len(req.Labels) != 0 && len(req.Labels) != len(req.Specs) {
			return nil, fmt.Errorf("sweep has %d labels for %d specs", len(req.Labels), len(req.Specs))
		}
		batch := []queue.NewJob{{Kind: "sweep", ParentIndex: -1, Waiting: true,
			Spec: json.RawMessage(fmt.Sprintf(`{"runs":%d}`, len(req.Specs)))}}
		for i, sc := range req.Specs {
			if err := validate(sc); err != nil {
				return nil, fmt.Errorf("spec %d: %w", i, err)
			}
			label := ""
			if len(req.Labels) > 0 {
				label = req.Labels[i]
			}
			batch = append(batch, queue.NewJob{
				Kind:        "run",
				Spec:        mustPayload(runPayload{Label: label, Spec: sc, Events: req.Events}),
				ParentIndex: 0,
			})
		}
		return batch, nil
	case "matrix":
		points, err := expt.MatrixFor(expt.Config{Seed: req.Seed}, req.App, req.Class, req.Ranks)
		if err != nil {
			return nil, err
		}
		sub := submitRequest{Kind: "sweep", Events: req.Events}
		for _, p := range points {
			sub.Labels = append(sub.Labels, p.Label)
			sub.Specs = append(sub.Specs, pointConfig(p))
		}
		return buildBatch(sub)
	default:
		return nil, fmt.Errorf("unknown submission kind %q", req.Kind)
	}
}

// pointConfig converts an expt matrix point into the paper's two-instance
// experiment spec (the shape expt's RunPair builds directly).
func pointConfig(p expt.MatrixPoint) gangsched.SpecConfig {
	return gangsched.SpecConfig{
		Seed:     p.Seed,
		Nodes:    p.Ranks,
		MemoryMB: p.MemoryMB,
		LockedMB: p.LockedMB,
		Policy:   p.Policy,
		Batch:    p.Batch,
		Quantum:  p.Quantum,
		BGFrac:   p.BGFrac,
		Jobs: []gangsched.JobConfig{
			{Name: p.App + "-1", App: p.App, Class: p.Class, HintWS: true},
			{Name: p.App + "-2", App: p.App, Class: p.Class, HintWS: true},
		},
	}
}

// jobView is the API shape of one job (spec/result payloads elided from
// listings; /jobs/{id} includes them).
type jobView struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	Parent   string    `json:"parent,omitempty"`
	State    string    `json:"state"`
	Attempts int       `json:"attempts"`
	Crashes  int       `json:"crashes,omitempty"`
	Error    string    `json:"error,omitempty"`
	Enqueued time.Time `json:"enqueuedAt"`
	Updated  time.Time `json:"updatedAt"`
}

func viewOf(j queue.Job) jobView {
	return jobView{
		ID: j.ID, Kind: j.Kind, Parent: j.Parent, State: string(j.State),
		Attempts: j.Attempts, Crashes: j.Crashes, Error: j.Error,
		Enqueued: j.EnqueuedAt, Updated: j.UpdatedAt,
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.q.List()
	views := make([]jobView, len(jobs))
	for i, j := range jobs {
		views[i] = viewOf(j)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Depths map[queue.State]int `json:"depths"`
		Jobs   []jobView           `json:"jobs"`
	}{s.q.Depths(), views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.q.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	kids := s.q.Children(j.ID)
	children := make([]jobView, 0, len(kids))
	for _, c := range kids {
		children = append(children, viewOf(c))
	}
	result, err := s.withEvents(j, kids)
	if err != nil {
		http.Error(w, fmt.Sprintf("job %s events: %v", j.ID, err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		jobView
		Spec     json.RawMessage `json:"spec,omitempty"`
		Result   json.RawMessage `json:"result,omitempty"`
		Children []jobView       `json:"children,omitempty"`
	}{viewOf(j), j.Spec, result, children})
}

// withEvents returns job j's result as GET /jobs/{id} serves it, with each
// run's stored events filled in: a run's document, or a done parent's
// aggregate of its children's documents (kids, as settleParent built it).
func (s *Server) withEvents(j queue.Job, kids []queue.Job) (json.RawMessage, error) {
	if j.State != queue.StateDone || len(kids) == 0 {
		return s.runWithEvents(j)
	}
	parts := make([]json.RawMessage, len(kids))
	for i, c := range kids {
		var err error
		if parts[i], err = s.runWithEvents(c); err != nil {
			return nil, err
		}
	}
	return json.Marshal(parts)
}

// runWithEvents fills done run j's stored events into its document.
// RunResult holds no floats or maps, so decoding it, setting Events and
// marshalling again gives the bytes of the document with its events
// embedded; one that already embeds them is served as stored.
func (s *Server) runWithEvents(j queue.Job) (json.RawMessage, error) {
	var p runPayload
	var doc runDoc
	if j.State != queue.StateDone || json.Unmarshal(j.Spec, &p) != nil || !p.Events ||
		json.Unmarshal(j.Result, &doc) != nil || doc.Events != nil {
		return j.Result, nil
	}
	events, err := s.store.Events(store.Query{Run: j.ID})
	if errors.Is(err, store.ErrNoRun) {
		return j.Result, nil
	}
	if err != nil {
		return nil, err
	}
	doc.Events = events
	return json.Marshal(doc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metricsMu.Lock()
	defer s.metricsMu.Unlock()
	s.reg.WriteProm(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}{"ok", s.isDraining()})
}

// handleEvents has two modes. Without a run parameter the hub streams
// queue events as NDJSON: the last 1024 first, then live events until the
// client disconnects or the server drains (a subscriber that cannot keep
// up misses events rather than blocking the queue). With ?run=<jobID> it
// serves that run's simulation event history as JSONL — a bounded range
// query against the trace store honouring from=, to= (Go durations of
// simulated time) and node= (see handleRunEvents).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Has("run") {
		s.handleRunEvents(w, r)
		return
	}
	s.hub.ServeHTTP(w, r)
}

// parseEventQuery builds the store query from /events?run=&from=&to=&node=.
// from and to are Go duration strings of simulated time ("10m", "1.5s");
// from is inclusive, to exclusive (absent = unbounded); node keeps a single
// node's events (-1 = cluster scope).
func parseEventQuery(r *http.Request) (store.Query, error) {
	vals := r.URL.Query()
	q := store.Query{Run: vals.Get("run")}
	bound := func(key string) (sim.Time, error) {
		raw := vals.Get(key)
		if raw == "" {
			return 0, nil
		}
		d, err := time.ParseDuration(raw)
		if err != nil {
			return 0, fmt.Errorf("bad %s %q: want a duration like 10m", key, raw)
		}
		return sim.Time(sim.DurationOf(d)), nil
	}
	var err error
	if q.From, err = bound("from"); err != nil {
		return q, err
	}
	if q.To, err = bound("to"); err != nil {
		return q, err
	}
	if raw := vals.Get("node"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			return q, fmt.Errorf("bad node %q: want an integer", raw)
		}
		q.Node = &n
	}
	if err := q.Validate(); err != nil {
		return q, err
	}
	return q, nil
}

// handleRunEvents serves one run's simulation event history from the
// trace store as JSONL, identical byte-for-byte to what gangsim -events
// writes for the same spec; the range query decodes only the blocks
// covering the requested window.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	q, err := parseEventQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !s.store.Has(q.Run) {
		http.Error(w, fmt.Sprintf("run %q has no stored events: unknown, not started, or submitted without \"events\":true", q.Run), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	jw := obs.NewJSONL(w)
	if err := s.store.Scan(q, func(ev obs.Event) error {
		jw.Emit(ev)
		return jw.Err()
	}); err != nil {
		// Headers are out; all we can do is truncate and log.
		s.logf("events %s: %v", q.Run, err)
		return
	}
	if err := jw.Flush(); err != nil {
		s.logf("events %s: %v", q.Run, err)
	}
}
