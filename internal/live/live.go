// Package live is the run observer: an HTTP server exposing a running
// simulation's metrics (/metrics, Prometheus text), event stream (/events,
// NDJSON) and per-job progress with makespan attribution (/progress, JSON)
// without perturbing it.
//
// The simulation is single-threaded and deterministic, so handlers never
// touch its state from HTTP goroutines while the run is in flight: reads
// are posted as closures onto a channel the cluster drains at engine-step
// boundaries (cluster.SetStepDrain), so every observation executes on the
// simulation goroutine between events. Event streaming needs no such trip —
// the run's Hub is one of its event sinks and hands events across with its
// own lock. After Quiesce (the run has ended, nothing mutates any more)
// reads run inline.
package live

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// doTimeout bounds how long a handler waits for the simulation loop to
// service its read. A wedged (or finished but not yet quiesced) run
// answers 503 instead of hanging the client.
const doTimeout = 10 * time.Second

// Observer serves a cluster's observability over HTTP. Create with Start,
// install Requests() as the cluster's step drain, Quiesce when the run
// ends, Close when done serving.
type Observer struct {
	cl    *cluster.Cluster
	setup *obs.Setup
	hub   *Hub[obs.Event]

	reqs chan func()

	mu       sync.Mutex
	quiesced bool

	srv *http.Server
	ln  net.Listener
}

// Start listens on addr (host:port, ":0" for an ephemeral port) and serves
// the observer endpoints for cl. setup supplies the metrics registry (a nil
// registry turns /metrics into 404); hub serves /events — it must be one
// of the run's event sinks, and Close closes it.
func Start(addr string, cl *cluster.Cluster, setup *obs.Setup, hub *Hub[obs.Event]) (*Observer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: listen on %s: %w", addr, err)
	}
	o := &Observer{
		cl:    cl,
		setup: setup,
		hub:   hub,
		reqs:  make(chan func(), 64),
		ln:    ln,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", o.handleMetrics)
	mux.Handle("/events", hub)
	mux.HandleFunc("/progress", o.handleProgress)
	o.srv = &http.Server{Handler: mux}
	go func() { _ = o.srv.Serve(ln) }()
	return o, nil
}

// Addr reports the bound listen address (useful with ":0").
func (o *Observer) Addr() string { return o.ln.Addr().String() }

// Requests is the closure channel to install via cluster.SetStepDrain.
func (o *Observer) Requests() <-chan func() { return o.reqs }

// Quiesce switches the observer to direct reads once the simulation has
// stopped mutating (run complete or aborted). Closures already posted are
// drained inline first, so no handler is left waiting.
func (o *Observer) Quiesce() {
	o.mu.Lock()
	o.quiesced = true
	o.mu.Unlock()
	for {
		select {
		case fn := <-o.reqs:
			fn()
		default:
			return
		}
	}
}

// Close quiesces, ends every /events stream and shuts the HTTP server down.
func (o *Observer) Close() error {
	o.Quiesce()
	o.hub.Close()
	return o.srv.Close()
}

// do executes fn race-free against the simulation: inline after Quiesce,
// otherwise on the simulation goroutine at the next step boundary. It
// reports false when the run serviced nothing within doTimeout.
func (o *Observer) do(fn func()) bool {
	o.mu.Lock()
	if o.quiesced {
		o.mu.Unlock()
		fn()
		return true
	}
	done := make(chan struct{})
	select {
	case o.reqs <- func() { fn(); close(done) }:
		o.mu.Unlock()
	default:
		o.mu.Unlock()
		return false
	}
	select {
	case <-done:
		return true
	case <-time.After(doTimeout):
		return false
	}
}

func (o *Observer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if o.setup == nil || o.setup.Reg == nil {
		http.Error(w, "metrics disabled for this run", http.StatusNotFound)
		return
	}
	var buf bytes.Buffer
	var err error
	if !o.do(func() { err = o.setup.Reg.WriteProm(&buf) }) {
		http.Error(w, "simulation not servicing reads", http.StatusServiceUnavailable)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write(buf.Bytes())
}

// jobProgress is one job's state in the /progress document.
type jobProgress struct {
	Name        string           `json:"name"`
	Done        bool             `json:"done"`
	Iterations  int              `json:"iterations"`
	TotalIters  int              `json:"totalIters"`
	FinishedAt  sim.Time         `json:"finishedAtUs,omitempty"`
	Attribution *obs.Attribution `json:"attribution,omitempty"`
}

// progressDoc is the /progress response body.
type progressDoc struct {
	SimTime sim.Time      `json:"simTimeUs"`
	Jobs    []jobProgress `json:"jobs"`
}

func (o *Observer) handleProgress(w http.ResponseWriter, _ *http.Request) {
	var doc progressDoc
	if !o.do(func() {
		now := o.cl.Eng.Now()
		doc.SimTime = now
		jobs := o.cl.Jobs()
		for i, p := range o.cl.Progress() {
			jp := jobProgress{
				Name: p.Job, Done: p.Done,
				Iterations: p.Iterations, TotalIters: p.TotalIters,
			}
			if p.Done {
				jp.FinishedAt = jobs[i].FinishedAt()
			}
			jp.Attribution = metrics.CriticalAttribution(jobs[i], now)
			doc.Jobs = append(doc.Jobs, jp)
		}
	}) {
		http.Error(w, "simulation not servicing reads", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}
