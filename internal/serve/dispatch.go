package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	gangsched "repro"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/store"
)

// idlePoll bounds how long the dispatcher sleeps when the queue reports
// nothing ready and no retry horizon: a safety net under the wake channel.
const idlePoll = 250 * time.Millisecond

// dispatch is the lease loop: it pulls ready jobs off the durable queue
// and hands them to the in-process pool, blocking on Submit when every
// worker is busy so the process never hoards leases it cannot serve.
func (s *Server) dispatch() {
	defer close(s.dispatchDone)
	for {
		if s.isDraining() || s.runCtx.Err() != nil {
			return
		}
		job, ok, retryAt, err := s.q.Lease(s.worker)
		switch {
		case err != nil:
			if s.noteCrash(err) || errors.Is(err, queue.ErrClosed) {
				return
			}
			s.logf("lease: %v", err)
			ok = false
		case ok:
			j := *job
			s.mu.Lock()
			s.inflight[j.ID] = struct{}{}
			s.mu.Unlock()
			if !s.pool.Submit(func() { s.runJob(j) }) {
				// Pool already closed (drain raced us): hand the lease back.
				s.dropInflight(j.ID)
				if err := s.q.Release(j.ID, s.worker); err != nil {
					s.noteCrash(err)
				}
				return
			}
			continue
		}
		// Nothing ready: sleep until new work, the retry horizon, or the
		// idle poll (which also drives lease reclaim via Lease).
		d := idlePoll
		if !retryAt.IsZero() {
			if until := time.Until(retryAt); until < d {
				d = max(until, time.Millisecond)
			}
		}
		timer := time.NewTimer(d)
		select {
		case <-s.wake:
		case <-timer.C:
		case <-s.runCtx.Done():
			timer.Stop()
			return
		}
		timer.Stop()
	}
}

func (s *Server) dropInflight(id string) {
	s.mu.Lock()
	delete(s.inflight, id)
	s.mu.Unlock()
}

// runJob executes one leased job on a pool worker and settles its verdict:
// Complete on success, Fail (bounded retry, then dead-letter) on error,
// Release (verdict-free) when the run was interrupted by drain rather than
// judged.
func (s *Server) runJob(job queue.Job) {
	defer s.dropInflight(job.ID)
	// A job that was sitting in Submit when drain started has not run yet:
	// hand it back instead of starting a simulation nobody will wait for.
	if s.runCtx.Err() != nil || s.isDraining() {
		if err := s.q.Release(job.ID, s.worker); err != nil {
			s.noteCrash(err)
		}
		return
	}
	s.metricsMu.Lock()
	s.active.Add(1)
	s.metricsMu.Unlock()
	start := time.Now()
	result, err := s.exec(s.runCtx, job)
	s.metricsMu.Lock()
	s.active.Add(-1)
	s.runSec.Observe(time.Since(start).Seconds())
	s.metricsMu.Unlock()

	if err != nil {
		if s.runCtx.Err() != nil {
			// Interrupted, not judged: the attempt budget is untouched and
			// the job re-dispatches after restart.
			if rerr := s.q.Release(job.ID, s.worker); rerr != nil && !s.noteCrash(rerr) {
				s.logf("release %s: %v", job.ID, rerr)
			}
			return
		}
		s.logf("job %s failed: %v", job.ID, err)
		if ferr := s.q.Fail(job.ID, s.worker, err.Error()); ferr != nil {
			if !s.noteCrash(ferr) && !errors.Is(ferr, queue.ErrNotLeased) {
				s.logf("fail %s: %v", job.ID, ferr)
			}
			return
		}
		s.settleParent(job.Parent)
		return
	}
	if cerr := s.q.Complete(job.ID, s.worker, result); cerr != nil {
		if !s.noteCrash(cerr) && !errors.Is(cerr, queue.ErrNotLeased) {
			s.logf("complete %s: %v", job.ID, cerr)
		}
		return
	}
	s.settleParent(job.Parent)
}

// settleParent finalizes a waiting aggregate once every child is terminal:
// done with the seq-ordered list of child result documents, or dead as
// soon as any child dead-letters. Serialized under s.mu so two children
// finishing together cannot race the aggregation.
func (s *Server) settleParent(parent string) {
	if parent == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.q.Get(parent)
	if !ok || p.State != queue.StateWaiting {
		return
	}
	children := s.q.Children(parent)
	parts := make([]json.RawMessage, 0, len(children))
	for _, c := range children {
		switch c.State {
		case queue.StateDone:
			parts = append(parts, c.Result)
		case queue.StateDead:
			err := s.q.Finalize(parent, nil, fmt.Sprintf("child %s dead: %s", c.ID, c.Error))
			if err != nil && !s.noteCrash(err) && !errors.Is(err, queue.ErrBadState) {
				s.logf("finalize %s: %v", parent, err)
			}
			return
		default:
			return // still working
		}
	}
	agg, err := json.Marshal(parts)
	if err != nil {
		s.logf("aggregate %s: %v", parent, err)
		return
	}
	if err := s.q.Finalize(parent, agg, ""); err != nil && !s.noteCrash(err) && !errors.Is(err, queue.ErrBadState) {
		s.logf("finalize %s: %v", parent, err)
	}
}

// heartbeatLoop extends the lease on every in-flight job at a third of the
// TTL, so only a wedged or dead process lets leases expire.
func (s *Server) heartbeatLoop() {
	defer s.loops.Done()
	ttl := s.cfg.LeaseTTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	t := time.NewTicker(ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			ids := make([]string, 0, len(s.inflight))
			for id := range s.inflight {
				ids = append(ids, id)
			}
			s.mu.Unlock()
			for _, id := range ids {
				err := s.q.Heartbeat(id, s.worker)
				if err == nil || errors.Is(err, queue.ErrNotLeased) || errors.Is(err, queue.ErrNotFound) {
					continue // settled or reclaimed between snapshot and beat
				}
				if errors.Is(err, queue.ErrClosed) {
					return
				}
				s.logf("heartbeat %s: %v", id, err)
			}
		case <-s.runCtx.Done():
			return
		}
	}
}

// reclaimLoop sweeps expired leases. In a single healthy process
// heartbeats make this a no-op; it matters when a pool worker wedges past
// the TTL, and after that worker's job is reclaimed someone else can run
// it.
func (s *Server) reclaimLoop() {
	defer s.loops.Done()
	ttl := s.cfg.LeaseTTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	t := time.NewTicker(ttl)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			n, err := s.q.Reclaim()
			if err != nil {
				if s.noteCrash(err) || errors.Is(err, queue.ErrClosed) {
					return
				}
				s.logf("reclaim: %v", err)
				continue
			}
			if n > 0 {
				s.logf("reclaimed %d expired leases", n)
				select {
				case s.wake <- struct{}{}:
				default:
				}
			}
		case <-s.runCtx.Done():
			return
		}
	}
}

// RunExec is the production executor: it decodes the job's runPayload,
// builds the Spec, and runs the simulator under the dispatch context. The
// result document is a pure function of the payload (every run is
// deterministic under its seeds), which is what makes re-dispatch after a
// crash idempotent.
func RunExec(ctx context.Context, job queue.Job) (json.RawMessage, error) {
	return runExec(ctx, job, nil)
}

// runExec is RunExec with an optional trace store. With a store, an
// event-capturing run's history is persisted under the job ID before the
// verdict lands, so a done job always has complete stored history; the
// run-is-a-pure-function contract carries over because a re-dispatched
// attempt resets its history before rewriting it.
func runExec(ctx context.Context, job queue.Job, st *store.Store) (json.RawMessage, error) {
	var p runPayload
	if err := json.Unmarshal(job.Spec, &p); err != nil {
		return nil, fmt.Errorf("decoding run payload: %w", err)
	}
	spec, err := p.Spec.Spec()
	if err != nil {
		return nil, err
	}
	var sink *store.Sink
	if p.Events {
		spec.Observe = &obs.Options{KeepEvents: true}
		if st != nil {
			if err := st.Reset(job.ID); err != nil {
				return nil, fmt.Errorf("resetting stored events: %w", err)
			}
			w, err := st.Writer(job.ID, store.WriterOptions{})
			if err != nil {
				return nil, fmt.Errorf("opening event store: %w", err)
			}
			sink = store.NewSink(w)
			spec.Observe.Sinks = []obs.Sink{sink}
		}
	}
	h, err := gangsched.RunDetailedContext(ctx, spec)
	if sink != nil {
		cerr := sink.Close()
		if err == nil && cerr != nil {
			err = fmt.Errorf("storing events: %w", cerr)
		}
	}
	if err != nil {
		return nil, err
	}
	doc := runDoc{Label: p.Label, Result: h.Result}
	if p.Events {
		doc.Events = h.Events
		if doc.Events == nil {
			doc.Events = []obs.Event{}
		}
	}
	return json.Marshal(doc)
}
