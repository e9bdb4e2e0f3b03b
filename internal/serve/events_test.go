package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	gangsched "repro"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/store"
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

// directRun runs sc directly, as gangsim -events does, and returns its
// result, its JSONL event log and the events parsed back from it.
func directRun(t *testing.T, sc gangsched.SpecConfig) (metrics.RunResult, []byte, []obs.Event) {
	t.Helper()
	spec, err := sc.Spec()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	spec.Observe = &obs.Options{Sinks: []obs.Sink{sink}}
	res, err := gangsched.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("run captured no events")
	}
	return res, buf.Bytes(), events
}

// doneRun submits one run of fastSpec(7) and waits for it to finish.
func doneRun(t *testing.T, s *Server, events bool) queue.Job {
	t.Helper()
	resp := submit(t, s, submitRequest{Kind: "run", Spec: ptr(fastSpec(7)), Events: events})
	job := waitTerminal(t, s.Queue(), resp.ID, 30*time.Second)
	if job.State != queue.StateDone {
		t.Fatalf("job %s: state %s, error %q", job.ID, job.State, job.Error)
	}
	return job
}

// getResult fetches GET /jobs/{id} and returns its result field.
func getResult(t *testing.T, s *Server, id string) json.RawMessage {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct {
		Result json.RawMessage `json:"result"`
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /jobs/%s: %d %s", id, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view.Result
}

// TestGetFillsEventsFromStore keeps each run's events only in the trace
// store: the queue's result documents hold none, and GET /jobs/{id} fills
// them in, for a run and for every document in a sweep parent's
// aggregate, byte-equal to the document of a direct run with its events.
func TestGetFillsEventsFromStore(t *testing.T) {
	s := start(t, testConfig(t, t.TempDir()))
	defer s.Kill()

	noEvents := func(j queue.Job) {
		t.Helper()
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(j.Result, &doc); err != nil {
			t.Fatal(err)
		}
		if _, ok := doc["events"]; ok {
			t.Fatalf("queue stores job %s's events in its result", j.ID)
		}
	}
	direct := func(label string, sc gangsched.SpecConfig) runDoc {
		res, _, events := directRun(t, sc)
		return runDoc{Label: label, Result: res, Events: events}
	}

	job := doneRun(t, s, true)
	noEvents(job)
	want, err := json.Marshal(direct("", fastSpec(7)))
	if err != nil {
		t.Fatal(err)
	}
	if got := getResult(t, s, job.ID); !bytes.Equal(got, want) {
		t.Fatalf("GET result of an event-capturing run differs from a direct run:\ngot %d bytes\nwant %d bytes", len(got), len(want))
	}

	resp := submit(t, s, submitRequest{
		Kind:   "sweep",
		Specs:  []gangsched.SpecConfig{fastSpec(1), fastSpec(2)},
		Labels: []string{"one", "two"},
		Events: true,
	})
	parent := waitTerminal(t, s.Queue(), resp.ID, 30*time.Second)
	if parent.State != queue.StateDone {
		t.Fatalf("parent %s: %s (%s)", parent.ID, parent.State, parent.Error)
	}
	for _, c := range s.Queue().Children(parent.ID) {
		noEvents(c)
	}
	want, err = json.Marshal([]runDoc{direct("one", fastSpec(1)), direct("two", fastSpec(2))})
	if err != nil {
		t.Fatal(err)
	}
	if got := getResult(t, s, parent.ID); !bytes.Equal(got, want) {
		t.Fatalf("GET result of a sweep parent differs from direct runs:\ngot %d bytes\nwant %d bytes", len(got), len(want))
	}

	// A run without events is served as stored.
	plain := doneRun(t, s, false)
	if got := getResult(t, s, plain.ID); !bytes.Equal(got, plain.Result) {
		t.Fatalf("GET result of a run without events:\n%s\nwant\n%s", got, plain.Result)
	}
}

// TestRunEventsStoreServed covers /events?run=: an event-capturing run's
// history lands in the binary trace store, and the endpoint serves it as
// JSONL byte-identical to a direct run's event log, honouring the
// from/to/node range parameters.
func TestRunEventsStoreServed(t *testing.T) {
	s := start(t, testConfig(t, t.TempDir()))
	defer s.Kill()

	job := doneRun(t, s, true)
	_, log, events := directRun(t, fastSpec(7))
	if !s.store.Has(job.ID) {
		t.Fatalf("store has no run %q", job.ID)
	}

	status, body := getRunEvents(t, s, job.ID, "")
	if status != http.StatusOK {
		t.Fatalf("GET /events?run=%s: %d %s", job.ID, status, body)
	}
	if !bytes.Equal(body, log) {
		t.Fatalf("store-served stream differs from the direct run's log:\ngot %d bytes\nwant %d bytes", len(body), len(log))
	}

	// A bounded window with a node filter must match the same filter
	// applied to the direct run's events. Pick the window from the data so
	// the filter is non-vacuous on both sides.
	mid := events[len(events)/2].T
	last := events[len(events)-1].T
	if !(mid > 0 && mid < last) {
		t.Fatalf("degenerate event log: mid=%d last=%d", mid, last)
	}
	from := time.Duration(mid) * time.Microsecond
	to := time.Duration(last) * time.Microsecond
	status, body = getRunEvents(t, s, job.ID, "from="+from.String()+"&to="+to.String()+"&node=0")
	if status != http.StatusOK {
		t.Fatalf("range query: %d %s", status, body)
	}
	want := eventsJSONL(t, events, func(ev obs.Event) bool {
		return ev.T >= mid && ev.T < last && ev.Node == 0
	})
	if len(want) == 0 {
		t.Fatal("range filter selected no events; widen the window")
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("ranged store stream differs from the filtered direct events:\ngot %d bytes\nwant %d bytes", len(body), len(want))
	}
}

// TestRunEventsValidation rejects malformed range parameters before
// touching the store.
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

// TestRunEventsNotFound covers the 404s: unknown run, unfinished run, and
// a finished run submitted without events:true.
func TestRunEventsNotFound(t *testing.T) {
	block := make(chan struct{})
	cfg := testConfig(t, t.TempDir())
	st, err := store.Open(filepath.Join(cfg.Dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Exec = func(ctx context.Context, job queue.Job) (json.RawMessage, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return runExec(ctx, job, st)
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

// TestRunEventsSurviveRestart is the durability half of the store: a
// run's event history outlives the process that captured it, because it
// lives in segment files.
func TestRunEventsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s := start(t, testConfig(t, dir))
	job := doneRun(t, s, true)
	_, want, _ := directRun(t, fastSpec(7))
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
		t.Fatal("store-served stream after restart differs from the direct run's log")
	}
}
