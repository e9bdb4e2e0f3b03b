package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/queue"
)

// getRunEvents fetches /events?run=... with extra query params appended
// verbatim and returns the status code and body.
func getRunEvents(t *testing.T, s *Server, run, params string) (int, []byte) {
	t.Helper()
	url := "http://" + s.Addr() + "/events?run=" + run
	if params != "" {
		url += "&" + params
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, body
}

// eventsJSONL renders events exactly as the handler does, optionally
// filtered by the same window/node semantics (from inclusive, to
// exclusive, 0 = unbounded).
func eventsJSONL(t *testing.T, events []obs.Event, filter func(obs.Event) bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	jw := obs.NewJSONL(&buf)
	for _, ev := range events {
		if filter != nil && !filter(ev) {
			continue
		}
		jw.Emit(ev)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// doneRunDoc submits one event-capturing run, waits for it, and returns
// the finished job plus its decoded result document.
func doneRunDoc(t *testing.T, s *Server, events bool) (queue.Job, runDoc) {
	t.Helper()
	resp := submit(t, s, submitRequest{Kind: "run", Spec: ptr(fastSpec(7)), Events: events})
	job := waitTerminal(t, s.Queue(), resp.ID, 30*time.Second)
	if job.State != queue.StateDone {
		t.Fatalf("job %s: state %s, error %q", job.ID, job.State, job.Error)
	}
	var doc runDoc
	if err := json.Unmarshal(job.Result, &doc); err != nil {
		t.Fatal(err)
	}
	return job, doc
}

// TestRunEventsStoreServed exercises the primary tier: an event-capturing
// run's history lands in the binary trace store, and /events?run= serves
// it as JSONL byte-identical to the embedded event log, honouring the
// from/to/node range parameters.
func TestRunEventsStoreServed(t *testing.T) {
	s := start(t, testConfig(t, t.TempDir()))
	defer s.Kill()

	job, doc := doneRunDoc(t, s, true)
	if len(doc.Events) == 0 {
		t.Fatal("run captured no events")
	}
	if !s.store.Has(job.ID) {
		t.Fatalf("store has no run %q: the store tier is not being exercised", job.ID)
	}

	status, body := getRunEvents(t, s, job.ID, "")
	if status != http.StatusOK {
		t.Fatalf("GET /events?run=%s: %d %s", job.ID, status, body)
	}
	if want := eventsJSONL(t, doc.Events, nil); !bytes.Equal(body, want) {
		t.Fatalf("store-served stream differs from embedded events:\ngot %d bytes\nwant %d bytes", len(body), len(want))
	}

	// A bounded window with a node filter must match the same filter
	// applied to the embedded log. Pick the window from the data so the
	// filter is non-vacuous on both sides.
	mid := doc.Events[len(doc.Events)/2].T
	last := doc.Events[len(doc.Events)-1].T
	if !(mid > 0 && mid < last) {
		t.Fatalf("degenerate event log: mid=%d last=%d", mid, last)
	}
	from := time.Duration(mid) * time.Microsecond
	to := time.Duration(last) * time.Microsecond
	status, body = getRunEvents(t, s, job.ID, "from="+from.String()+"&to="+to.String()+"&node=0")
	if status != http.StatusOK {
		t.Fatalf("range query: %d %s", status, body)
	}
	want := eventsJSONL(t, doc.Events, func(ev obs.Event) bool {
		return ev.T >= mid && ev.T < last && ev.Node == 0
	})
	if len(want) == 0 {
		t.Fatal("range filter selected no events; widen the window")
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("ranged store stream differs from filtered embedded events:\ngot %d bytes\nwant %d bytes", len(body), len(want))
	}
}

// TestRunEventsEmbeddedFallback covers runs the store has never seen
// (custom executor): /events?run= falls back to the events embedded in
// the result document, applying the same range semantics.
func TestRunEventsEmbeddedFallback(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.Exec = RunExec // no store: events live only in the result document
	s := start(t, cfg)
	defer s.Kill()

	job, doc := doneRunDoc(t, s, true)
	if s.store.Has(job.ID) {
		t.Fatalf("store unexpectedly has run %q: fallback not exercised", job.ID)
	}

	status, body := getRunEvents(t, s, job.ID, "")
	if status != http.StatusOK {
		t.Fatalf("GET /events?run=%s: %d %s", job.ID, status, body)
	}
	if want := eventsJSONL(t, doc.Events, nil); !bytes.Equal(body, want) {
		t.Fatal("fallback stream differs from embedded events")
	}

	mid := doc.Events[len(doc.Events)/2].T
	status, body = getRunEvents(t, s, job.ID, "to="+(time.Duration(mid)*time.Microsecond).String())
	if status != http.StatusOK {
		t.Fatalf("ranged fallback: %d %s", status, body)
	}
	want := eventsJSONL(t, doc.Events, func(ev obs.Event) bool { return ev.T < mid })
	if !bytes.Equal(body, want) {
		t.Fatal("ranged fallback stream differs from filtered embedded events")
	}
}

// TestRunEventsValidation rejects malformed range parameters before
// touching either tier.
func TestRunEventsValidation(t *testing.T) {
	s := start(t, testConfig(t, t.TempDir()))
	defer s.Kill()

	for _, tc := range []struct{ name, params string }{
		{"bad from", "from=yesterday"},
		{"bad to", "to=1x"},
		{"bad node", "node=all"},
		{"negative from", "from=-5s"},
		{"empty window", "from=10m&to=5m"},
	} {
		status, body := getRunEvents(t, s, "whatever", tc.params)
		if status != http.StatusBadRequest {
			t.Errorf("%s (%s): got %d %q, want 400", tc.name, tc.params, status, body)
		}
	}
}

// TestRunEventsNotFound covers the 404 tiers: unknown run, unfinished
// run, and a finished run submitted without events:true.
func TestRunEventsNotFound(t *testing.T) {
	block := make(chan struct{})
	cfg := testConfig(t, t.TempDir())
	cfg.Exec = func(ctx context.Context, job queue.Job) (json.RawMessage, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return runExec(ctx, job, nil)
	}
	s := start(t, cfg)
	defer s.Kill()
	defer close(block)

	if status, _ := getRunEvents(t, s, "no-such-run", ""); status != http.StatusNotFound {
		t.Errorf("unknown run: got %d, want 404", status)
	}

	resp := submit(t, s, submitRequest{Kind: "run", Spec: ptr(fastSpec(7)), Events: true})
	if status, body := getRunEvents(t, s, resp.ID, ""); status != http.StatusNotFound {
		t.Errorf("unfinished run: got %d %q, want 404", status, body)
	}

	block <- struct{}{} // release the in-flight run
	job := waitTerminal(t, s.Queue(), resp.ID, 30*time.Second)
	if job.State != queue.StateDone {
		t.Fatalf("job %s: state %s, error %q", job.ID, job.State, job.Error)
	}

	resp2 := submit(t, s, submitRequest{Kind: "run", Spec: ptr(fastSpec(7))})
	block <- struct{}{}
	job2 := waitTerminal(t, s.Queue(), resp2.ID, 30*time.Second)
	if job2.State != queue.StateDone {
		t.Fatalf("job %s: state %s, error %q", job2.ID, job2.State, job2.Error)
	}
	if status, body := getRunEvents(t, s, job2.ID, ""); status != http.StatusNotFound {
		t.Errorf("run without events: got %d %q, want 404", status, body)
	}
}

// TestRunEventsSurviveRestart is the durability half of the store tier: a
// run's event history outlives the process that captured it, because it
// lives in segment files rather than the queue's result documents.
func TestRunEventsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s := start(t, testConfig(t, dir))
	job, doc := doneRunDoc(t, s, true)
	want := eventsJSONL(t, doc.Events, nil)
	drain(t, s)

	s2 := start(t, testConfig(t, dir))
	defer s2.Kill()
	if !s2.store.Has(job.ID) {
		t.Fatalf("restarted store lost run %q", job.ID)
	}
	status, body := getRunEvents(t, s2, job.ID, "")
	if status != http.StatusOK {
		t.Fatalf("GET after restart: %d %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("store-served stream after restart differs from original embedded events")
	}
}
