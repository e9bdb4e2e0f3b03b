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

// leaseRetry is how long a worker whose Lease failed waits before it
// tries again.
const leaseRetry = 250 * time.Millisecond

// work is one of the server's workers. It leases a job straight from the
// queue, runs it and settles it, holding the lease until then, and idles
// while nothing is ready. It returns once drain or kill begins, or once
// the injected crash point has frozen the queue.
func (s *Server) work() {
	defer s.workers.Done()
	for !s.isDraining() && s.runCtx.Err() == nil {
		job, ok, retryAt, err := s.q.Lease()
		if err != nil {
			if s.noteCrash(err) {
				return
			}
			// The journal refused the lease record. Nothing may wake this
			// worker again, so it tries again on its own.
			s.logf("lease: %v", err)
			retryAt = time.Now().Add(leaseRetry)
		}
		if ok {
			// Pass the token on: another idle worker may find more work.
			s.poke()
			s.runJob(*job)
		} else {
			s.idle(retryAt)
		}
	}
}

// idle sleeps until a wake token, the retry horizon (zero: none) or the
// stop signal.
func (s *Server) idle(retryAt time.Time) {
	var retry <-chan time.Time
	if !retryAt.IsZero() {
		t := time.NewTimer(max(time.Until(retryAt), time.Millisecond))
		defer t.Stop()
		retry = t.C
	}
	select {
	case <-s.wake:
	case <-retry:
	case <-s.stop:
	}
}

// poke hands the one wake token to an idle worker, if none holds it yet.
func (s *Server) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// runJob executes one leased job and settles its verdict: Complete on
// success, Fail (bounded retry, then dead-letter) on error or panic,
// Release (verdict-free) when drain or kill interrupted the run rather
// than judged it. A result the journal refuses (over its record cap, or
// a failed write) fails the attempt too, so the job retries and
// dead-letters instead of staying leased until a restart.
func (s *Server) runJob(job queue.Job) {
	result, err := s.execute(job)
	switch {
	case err == nil:
		if err = s.q.Complete(job.ID, result); err != nil && !s.noteCrash(err) {
			s.logf("job %s: completing: %v", job.ID, err)
			err = s.q.Fail(job.ID, "complete: "+err.Error())
		}
	case s.runCtx.Err() != nil:
		// Interrupted, not judged: the attempt budget is untouched and the
		// job re-dispatches after restart.
		err = s.q.Release(job.ID)
	default:
		s.logf("job %s failed: %v", job.ID, err)
		err = s.q.Fail(job.ID, err.Error())
	}
	if err != nil {
		if !s.noteCrash(err) {
			s.logf("settling %s: %v", job.ID, err)
		}
		return
	}
	s.settleParent(job.Parent)
}

// execute runs the executor on job, counted in the active-runs gauge and
// timed into the run-seconds histogram. A panic is the run's error, so it
// fails the attempt instead of taking the worker down.
func (s *Server) execute(job queue.Job) (result json.RawMessage, err error) {
	s.metricsMu.Lock()
	s.active.Add(1)
	s.metricsMu.Unlock()
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
		s.metricsMu.Lock()
		s.active.Add(-1)
		s.runSec.Observe(time.Since(start).Seconds())
		s.metricsMu.Unlock()
	}()
	return s.exec(s.runCtx, job)
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

// runExec is the production executor: it decodes the job's runPayload,
// builds the Spec, and runs the simulator under the workers' run context. An
// event-capturing run writes its events to the trace store under the job
// ID, and only there, before the verdict lands; GET /jobs/{id} fills them
// into the result document. The result is a pure function of the payload,
// and a re-dispatched attempt resets the stored history before rewriting
// it, which is what makes re-dispatch after a crash idempotent.
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
		if err := st.Reset(job.ID); err != nil {
			return nil, fmt.Errorf("resetting stored events: %w", err)
		}
		w, err := st.Writer(job.ID, store.WriterOptions{})
		if err != nil {
			return nil, fmt.Errorf("opening event store: %w", err)
		}
		sink = store.NewSink(w)
		spec.Observe = &obs.Options{Sinks: []obs.Sink{sink}}
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
	return json.Marshal(runDoc{Label: p.Label, Result: h.Result})
}
