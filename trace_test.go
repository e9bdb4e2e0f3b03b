// Determinism, golden-equivalence and conservation tests for the tracing
// subsystem: span logs and Chrome exports must be identical across worker
// counts and audit settings, a traced run may not perturb any untraced
// golden, and every job's attribution ledger must sum exactly to its
// makespan (the 13th conservation law).
package gangsched

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
)

// tracedOptions is the full-capture option set the tracing tests run with.
func tracedOptions() *obs.Options {
	return &obs.Options{KeepEvents: true, Metrics: true, Trace: true, Ledger: true}
}

// chromeExport renders spans through the public exporter.
func chromeExport(t *testing.T, spans []obs.Span) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterministicAcrossParallel runs the same traced spec on one and
// on four workers and requires identical span logs and Chrome exports —
// the tracer rides the deterministic engine, so parallelism must be
// invisible.
func TestTraceDeterministicAcrossParallel(t *testing.T) {
	const n = 4
	runAll := func(workers int) []*RunHandle {
		t.Helper()
		hs, err := runner.Map(context.Background(), workers, n,
			func(_ context.Context, i int) (*RunHandle, error) {
				return RunDetailed(observedSpec(tracedOptions()))
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return hs
	}
	serial := runAll(1)
	parallel := runAll(n)
	if len(serial[0].Spans()) == 0 {
		t.Fatal("traced run produced no spans")
	}
	golden := chromeExport(t, serial[0].Spans())
	for i := 0; i < n; i++ {
		for _, h := range []*RunHandle{serial[i], parallel[i]} {
			if !reflect.DeepEqual(h.Spans(), serial[0].Spans()) {
				t.Fatalf("run %d: span log diverged (%d vs %d spans)",
					i, len(h.Spans()), len(serial[0].Spans()))
			}
			if got := chromeExport(t, h.Spans()); !bytes.Equal(got, golden) {
				t.Fatalf("run %d: Chrome export diverged", i)
			}
		}
	}
}

// TestTraceAuditedUnchanged requires the auditor (which adds its event-tail
// ring to the bus and sweeps every event) to leave the span log, event log
// and result of a traced run untouched.
func TestTraceAuditedUnchanged(t *testing.T) {
	plain, err := RunDetailed(observedSpec(tracedOptions()))
	if err != nil {
		t.Fatal(err)
	}
	spec := observedSpec(tracedOptions())
	spec.Audit = &AuditSpec{Every: 1}
	audited, err := RunDetailed(spec)
	if err != nil {
		t.Fatal(err)
	}
	if audited.AuditChecks == 0 {
		t.Fatal("auditor never ran")
	}
	if !reflect.DeepEqual(plain.Spans(), audited.Spans()) {
		t.Errorf("audited span log diverged (%d vs %d spans)", len(audited.Spans()), len(plain.Spans()))
	}
	if !bytes.Equal(chromeExport(t, plain.Spans()), chromeExport(t, audited.Spans())) {
		t.Error("audited Chrome export diverged")
	}
	if !reflect.DeepEqual(plain.Events, audited.Events) {
		t.Error("audited event log diverged")
	}
	if !reflect.DeepEqual(plain.Result, audited.Result) {
		t.Error("audited RunResult diverged")
	}
}

// TestTracedGoldensUnchanged is the zero-perturbation contract: switching
// the tracer and the ledgers on may not change the event stream or any
// figure metric — only add Attribution to the result and spans to the
// handle.
func TestTracedGoldensUnchanged(t *testing.T) {
	runJSONL := func(o *obs.Options) ([]byte, *RunHandle) {
		t.Helper()
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		o.Sinks = []obs.Sink{sink}
		h, err := RunDetailed(observedSpec(o))
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), h
	}
	plainLog, plain := runJSONL(&obs.Options{Metrics: true})
	tracedLog, traced := runJSONL(tracedOptions())
	if len(plainLog) == 0 {
		t.Fatal("empty event log")
	}
	if !bytes.Equal(plainLog, tracedLog) {
		t.Fatal("enabling the tracer changed the JSONL event stream")
	}
	if len(traced.Spans()) == 0 {
		t.Fatal("traced run produced no spans")
	}
	// The results must agree exactly once the traced run's extra
	// attribution field is cleared.
	got := traced.Result
	for i := range got.Jobs {
		if got.Jobs[i].Attribution == nil {
			t.Errorf("job %s missing attribution in a ledgered run", got.Jobs[i].Name)
		}
		got.Jobs[i].Attribution = nil
	}
	if !reflect.DeepEqual(plain.Result, got) {
		t.Errorf("tracing changed the run result:\nplain:  %+v\ntraced: %+v", plain.Result, got)
	}
}

// TestAttributionSumsToMakespan is the conservation property behind the
// 13th audit law, checked at the API level across the full policy matrix
// with the auditor sweeping every event: each job's six attribution buckets
// sum exactly to its finish time.
func TestAttributionSumsToMakespan(t *testing.T) {
	for _, policy := range []string{"orig", "ai", "so", "so/ao", "so/ao/bg", "so/ao/ai/bg"} {
		spec := observedSpec(&obs.Options{Ledger: true})
		spec.Policy = policy
		spec.Audit = &AuditSpec{Every: 1}
		h, err := RunDetailed(spec)
		if err != nil {
			t.Fatalf("policy %s: %v", policy, err)
		}
		for _, j := range h.Result.Jobs {
			if j.Attribution == nil {
				t.Fatalf("policy %s: job %s has no attribution", policy, j.Name)
			}
			if got, want := j.Attribution.Total(), sim.Duration(j.FinishedAt); got != want {
				t.Errorf("policy %s: job %s attribution sums to %v, makespan is %v (%+v)",
					policy, j.Name, got, want, *j.Attribution)
			}
			if j.Attribution.Compute <= 0 {
				t.Errorf("policy %s: job %s has no compute time: %+v", policy, j.Name, *j.Attribution)
			}
		}
	}
}

// TestAttributionFaultSoak runs the ledger through the fault-injection
// workhorse — crashes, requeues, disk errors, a straggler — with the
// auditor on: the conservation law must hold through node-down windows and
// crash-induced requeues, and the down bucket must actually see time.
func TestAttributionFaultSoak(t *testing.T) {
	spec := faultSoakSpec(&obs.Options{Ledger: true})
	spec.Audit = &AuditSpec{Every: 1}
	h, err := RunDetailed(spec)
	if err != nil {
		t.Fatal(err)
	}
	var down, queue sim.Duration
	for _, j := range h.Result.Jobs {
		if j.Attribution == nil {
			t.Fatalf("job %s has no attribution", j.Name)
		}
		if !j.Done {
			continue
		}
		if got, want := j.Attribution.Total(), sim.Duration(j.FinishedAt); got != want {
			t.Errorf("job %s attribution sums to %v, finish time is %v (%+v)",
				j.Name, got, want, *j.Attribution)
		}
		down += j.Attribution.Down
		queue += j.Attribution.Queue
	}
	if h.Result.Faults.Crashes == 0 {
		t.Fatal("soak plan injected no crashes")
	}
	if queue <= 0 {
		t.Error("no job accrued requeue/rotation wait under a three-job mix")
	}
	if down <= 0 {
		t.Error("no job accrued node-down time despite two crashes")
	}
}

// TestChromeTraceExportValid pins the exporter's format: valid JSON, the
// traceEvents envelope, complete ("X") events with microsecond timestamps
// and metadata naming the node rows.
func TestChromeTraceExportValid(t *testing.T) {
	h, err := RunDetailed(observedSpec(tracedOptions()))
	if err != nil {
		t.Fatal(err)
	}
	out := chromeExport(t, h.Spans())
	if !json.Valid(out) {
		t.Fatal("Chrome export is not valid JSON")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) <= len(h.Spans()) {
		t.Fatalf("export has %d events for %d spans (metadata rows missing)",
			len(doc.TraceEvents), len(h.Spans()))
	}
	complete, meta := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
			for _, k := range []string{"name", "ts", "dur", "pid", "tid"} {
				if _, ok := ev[k]; !ok {
					t.Fatalf("complete event missing %q: %v", k, ev)
				}
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %v in %v", ev["ph"], ev)
		}
	}
	if complete != len(h.Spans()) || meta == 0 {
		t.Fatalf("export has %d complete + %d metadata events for %d spans",
			complete, meta, len(h.Spans()))
	}
}

// TestHTTPObserverServes is the live-observer smoke test: during a run,
// /metrics serves a known counter, /progress reports every job with its
// attribution, and /events streams at least one NDJSON event; after the
// run the observer keeps serving the final state until closed. Two
// mid-run scrapes read the metric views on the simulation goroutine,
// through the step drain: no counter and not the clock may go back.
func TestHTTPObserverServes(t *testing.T) {
	spec := observedSpec(&obs.Options{Metrics: true, Ledger: true})
	// Enough iterations that the run is still in flight while we scrape
	// (the context cancel below ends it long before it completes).
	spec.Jobs[0].Workload = fastJob(1000, 100000)
	spec.Jobs[1].Workload = fastJob(1000, 100000)
	spec.TimeLimit = 24 * time.Hour
	spec.HTTP = "127.0.0.1:0"
	addrCh := make(chan string, 1)
	spec.OnHTTP = func(addr string) { addrCh <- addr }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type runOut struct {
		h   *RunHandle
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		h, err := RunDetailedContext(ctx, spec)
		done <- runOut{h, err}
	}()
	addr := <-addrCh
	client := &http.Client{Timeout: 30 * time.Second}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return resp.StatusCode, body
	}

	// Subscribe to /events before anything else so the stream is attached
	// while the run is still emitting. One NDJSON line proves the pipe; the
	// stream has no natural end until the run does, so read a single line
	// and drop the connection.
	resp, err := client.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/events: reading first line: %v", err)
	}
	var ev obs.Event
	if err := json.Unmarshal(line, &ev); err != nil {
		t.Fatalf("/events line is not an event: %v in %s", err, line)
	}

	scrape := func() map[string]float64 {
		t.Helper()
		code, body := get("/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics: status %d", code)
		}
		out := make(map[string]float64)
		for series, text := range parseProm(string(body)) {
			name, _, _ := strings.Cut(series, "{")
			if !strings.HasSuffix(name, "_total") && name != obs.MetricSimTime {
				continue
			}
			v, err := strconv.ParseFloat(text, 64)
			if err != nil {
				t.Fatalf("/metrics: %s %q: %v", series, text, err)
			}
			out[series] = v
		}
		if _, ok := out[obs.MetricSimTime]; !ok {
			t.Fatalf("/metrics lacks %s:\n%s", obs.MetricSimTime, body)
		}
		return out
	}
	first := scrape()

	code, body := get("/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress: status %d", code)
	}
	var doc struct {
		SimTime sim.Time `json:"simTimeUs"`
		Jobs    []struct {
			Name        string           `json:"name"`
			Attribution *obs.Attribution `json:"attribution"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/progress: %v in %s", err, body)
	}
	if len(doc.Jobs) != 2 || doc.Jobs[0].Name != "a" || doc.Jobs[0].Attribution == nil {
		t.Fatalf("/progress malformed: %s", body)
	}

	second := scrape()
	for series, v := range first {
		if second[series] < v {
			t.Errorf("%s went back between scrapes: %v then %v", series, v, second[series])
		}
	}
	if second[obs.MetricEngineEvents] <= 0 {
		t.Errorf("%s = %v mid-run, want positive", obs.MetricEngineEvents, second[obs.MetricEngineEvents])
	}

	cancel()
	out := <-done
	if out.h == nil {
		t.Fatalf("run failed: %v", out.err)
	}
	if out.h.Observer == nil {
		t.Fatal("handle has no observer")
	}
	defer out.h.Observer.Close()
	// Post-run (quiesced) serving: /progress must still answer, now inline.
	if code, _ := get("/progress"); code != http.StatusOK {
		t.Fatalf("post-run /progress: status %d", code)
	}
}
