package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"time"

	gangsched "repro"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
)

const (
	// serviceMenu is the number of distinct run specs (serviceSpec's
	// grid); ops pick among them, so each spec's engine events are
	// counted once.
	serviceMenu = 24
	// maxJobEvents is the in-memory event ring of a job (obs.DefaultEventCap):
	// a job's result embeds a complete event log only below it.
	maxJobEvents = 1 << 16
	// jobTimeout bounds the wait for one job's completion.
	jobTimeout = time.Minute
	// rotateBytes is how much result data one server retains before the
	// client drains it and starts a fresh one. The queue checkpoints every
	// job, results included, as one journal record capped at 16 MiB, and
	// once retained results outgrow the cap every later checkpoint fails;
	// a quarter of the cap keeps each server well clear of it at any speed.
	rotateBytes = 4 << 20
)

// service is the service-jobs workload: gangsimd running in process on a
// fresh state directory (fsync on, default workers), driven by one client
// holding one request connection and one queue-event stream. One op
// submits a seeded small run spec with its events captured, waits for the
// job's completed event and fetches the job; after each op the client
// queries a seeded window of the run's stored events.
type service struct {
	srv      *serve.Server
	dir      string
	base     string
	client   *http.Client
	st       *store.Store // a second handle on the server's trace store
	stream   *queueStream
	retained int64 // result bytes the current server holds
	rng      *rand.Rand
	menu     []gangsched.SpecConfig
	counted  []metrics.RunResult // per menu spec, from the event count pass
	events   []uint64            // per menu spec
	// last is the job the follow-up query reads.
	last struct {
		id     string
		events []obs.Event
		nodes  int
		end    sim.Time
	}
	queryMS []float64
}

func newService(seed int64) (bench, error) {
	s := &service{
		// One idle connection: the closed loop reuses a single request
		// connection for every call.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		rng:    rand.New(rand.NewSource(seed)),
	}
	if err := s.start(); err != nil {
		return nil, err
	}
	for i := 0; i < serviceMenu; i++ {
		s.menu = append(s.menu, serviceSpec(seed, i))
	}
	return s, nil
}

// start runs a server on a fresh state directory and opens the
// queue-event stream and a second handle on its trace store.
func (s *service) start() error {
	parent := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(parent, "state-")
	if err != nil {
		return err
	}
	srv, err := serve.Start(serve.Config{Dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	s.srv, s.dir, s.base, s.retained = srv, dir, "http://"+srv.Addr(), 0
	s.st, err = store.Open(filepath.Join(dir, "store"))
	if err == nil {
		s.stream, err = openQueueStream(s.base + "/events")
	}
	if err != nil {
		s.close()
		return err
	}
	return nil
}

// serviceSpec builds menu spec i, a small paging run: two jobs over one
// or two nodes of 4, 6 or 8 MB, one needing half a node's memory and the
// other three quarters, so every switch pages. The menu is the same grid for
// every seed (node count × memory × policy × which job is larger), so
// every seed's mix costs the same; the seed picks the model seed here,
// and the order in which ops visit the menu and the query windows.
func serviceSpec(seed int64, i int) gangsched.SpecConfig {
	memMB := 4 + 2*(i/2%3)
	small, large := memMB/2, memMB/2+memMB/4
	if i/12%2 == 1 {
		small, large = large, small
	}
	sc := gangsched.SpecConfig{
		Seed:     seed*100 + int64(i),
		Nodes:    1 + i%2,
		MemoryMB: memMB,
		Policy:   []string{"orig", "so/ao/ai/bg"}[i/6%2],
		Quantum:  "200ms",
	}
	for j, fp := range []int{small, large} {
		sc.Jobs = append(sc.Jobs, gangsched.JobConfig{
			Name:        fmt.Sprintf("job%d", j),
			FootprintMB: fp,
			Iterations:  4,
			TouchCostUs: 200,
			DirtyFrac:   0.5,
			HintWS:      true,
		})
	}
	return sc
}

// warmup submits every menu spec once, then replays each through the
// cluster build calls to count its engine events, checking that the
// replay's result equals what the service returned.
func (s *service) warmup(int, bench) (int, int) {
	s.counted = make([]metrics.RunResult, len(s.menu))
	s.events = make([]uint64, len(s.menu))
	attempted, failed := 0, 0
	for i := range s.menu {
		attempted++
		res, err := s.job(i, nil)
		if err == nil {
			err = s.after(nil)
		}
		if err == nil {
			err = s.count(i, res)
		}
		if err != nil {
			fmt.Println("perfbench: failed warm-up op:", err)
			failed++
		}
	}
	return attempted, failed
}

// count runs menu spec i through simulate with rank ledgers on (which
// never feed back into the model) and checks it against served.
func (s *service) count(i int, served metrics.RunResult) error {
	spec, err := s.menu[i].Spec()
	if err != nil {
		return err
	}
	res, n, err := simulate(spec, &obs.Options{Ledger: true})
	if err != nil {
		return err
	}
	plain := res
	plain.Jobs = append([]metrics.JobResult(nil), res.Jobs...)
	for k := range plain.Jobs {
		plain.Jobs[k].Attribution = nil
	}
	if !reflect.DeepEqual(plain, served) {
		return fmt.Errorf("service-jobs: spec %d: replayed result differs from the served one", i)
	}
	s.counted[i], s.events[i] = res, n
	return nil
}

func (s *service) op(p *probe) (uint64, error) {
	i := s.rng.Intn(len(s.menu))
	if _, err := s.job(i, p); err != nil {
		return 0, err
	}
	if s.events[i] == 0 {
		return 0, fmt.Errorf("service-jobs: spec %d has no event count", i)
	}
	p.addRun(s.counted[i])
	p.add("sim.events", float64(s.events[i]))
	return s.events[i], nil
}

// runDoc is the result document of a run job.
type runDoc struct {
	Result metrics.RunResult `json:"result"`
	Events []obs.Event       `json:"events"`
}

// job submits menu spec i, waits for the job to complete and fetches it.
func (s *service) job(i int, p *probe) (metrics.RunResult, error) {
	body, err := json.Marshal(map[string]any{"spec": s.menu[i], "events": true})
	if err != nil {
		return metrics.RunResult{}, err
	}
	id := p.begin("POST /jobs")
	var sub struct {
		ID string `json:"id"`
	}
	err = s.call(http.MethodPost, "/jobs", body, http.StatusAccepted, &sub)
	submit := p.end(id)
	if err != nil {
		return metrics.RunResult{}, err
	}

	id = p.begin("wait completed")
	times, err := s.stream.await(sub.ID)
	p.end(id)
	if err != nil {
		return metrics.RunResult{}, err
	}

	id = p.begin("GET /jobs/{id}")
	var view struct {
		State    string          `json:"state"`
		Attempts int             `json:"attempts"`
		Result   json.RawMessage `json:"result"`
	}
	err = s.call(http.MethodGet, "/jobs/"+sub.ID, nil, http.StatusOK, &view)
	result := p.end(id)
	if err != nil {
		return metrics.RunResult{}, err
	}
	// Attempts counts failed attempts; the stream counts leases.
	if view.State != string(queue.StateDone) || view.Attempts != 0 || times.leases != 1 {
		return metrics.RunResult{}, fmt.Errorf("service-jobs: job %s is %s after %d leases and %d failed attempts, want done on its first",
			sub.ID, view.State, times.leases, view.Attempts)
	}
	var doc runDoc
	if err := json.Unmarshal(view.Result, &doc); err != nil {
		return metrics.RunResult{}, fmt.Errorf("service-jobs: job %s result: %w", sub.ID, err)
	}
	for _, j := range doc.Result.Jobs {
		if !j.Done {
			return metrics.RunResult{}, fmt.Errorf("service-jobs: job %s: %s did not finish", sub.ID, j.Name)
		}
	}
	if len(doc.Events) == 0 || len(doc.Events) >= maxJobEvents {
		return metrics.RunResult{}, fmt.Errorf("service-jobs: job %s embeds %d events, want 1 to %d",
			sub.ID, len(doc.Events), maxJobEvents-1)
	}
	s.last.id, s.last.events, s.last.nodes = sub.ID, doc.Events, s.menu[i].Nodes
	s.last.end = doc.Events[len(doc.Events)-1].T
	s.retained += int64(len(view.Result))

	if p != nil {
		p.add("jobs", 1)
		p.add("serve.submit_ms", ms(submit))
		p.add("serve.result_ms", ms(result))
		p.add("serve.result_bytes", float64(len(view.Result)))
		p.add("serve.run_ms", ms(times.completed.Sub(times.leased)))
		p.add("queue.wait_ms", ms(times.leased.Sub(times.enqueued)))
		p.add("queue.attempts", float64(times.leases))
		p.add("obs.events", float64(len(doc.Events)))
		st, err := s.st.Stat(sub.ID)
		if err != nil {
			return metrics.RunResult{}, err
		}
		p.add("store.bytes", float64(st.Bytes))
		p.add("store.events", float64(st.Events))
	}
	return doc.Result, nil
}

// after queries a seeded window of the last job's stored events, checks
// the response against the result's embedded events filtered by the same
// window, and moves to a fresh server once this one retains rotateBytes.
func (s *service) after(p *probe) error {
	if err := s.query(p); err != nil {
		return err
	}
	if s.retained < rotateBytes {
		return nil
	}
	if err := s.close(); err != nil {
		return err
	}
	return s.start()
}

func (s *service) query(p *probe) error {
	q := s.window()
	vals := url.Values{"run": {q.Run}, "from": {fmt.Sprintf("%dus", q.From)}}
	if q.To > 0 {
		vals.Set("to", fmt.Sprintf("%dus", q.To))
	}
	if q.Node != nil {
		vals.Set("node", strconv.Itoa(*q.Node))
	}
	id := p.begin("GET /events?run=")
	t0 := time.Now()
	got, err := s.get("/events?" + vals.Encode())
	lat := time.Since(t0)
	p.end(id)
	if err != nil {
		return err
	}
	var want bytes.Buffer
	jw := obs.NewJSONL(&want)
	for _, ev := range s.last.events {
		if inWindow(ev, q) {
			jw.Emit(ev)
		}
	}
	if err := jw.Flush(); err != nil {
		return err
	}
	if !bytes.Equal(got, want.Bytes()) {
		return fmt.Errorf("service-jobs: /events?%s returned %d bytes, want the %d of the filtered result events",
			vals.Encode(), len(got), want.Len())
	}
	if p == nil {
		s.queryMS = append(s.queryMS, ms(lat))
		return nil
	}
	// Re-run the window directly against the store, to time the scan
	// without HTTP and read how many bytes it decoded.
	read0 := s.st.BytesRead()
	events := 0
	id = p.begin("store.Scan")
	err = s.st.Scan(q, func(obs.Event) error { events++; return nil })
	scan := p.end(id)
	if err != nil {
		return err
	}
	p.add("queries", 1)
	p.add("store.scan_ms", ms(scan))
	p.add("store.read_bytes", float64(s.st.BytesRead()-read0))
	p.add("store.query_events", float64(events))
	return nil
}

// window draws a query window over the last run: a start inside the run,
// an end after it (or none), and one node, cluster scope, or every node.
func (s *service) window() store.Query {
	q := store.Query{Run: s.last.id}
	end := int64(s.last.end) + 1
	q.From = sim.Time(s.rng.Int63n(end))
	if s.rng.Intn(4) > 0 {
		q.To = q.From + 1 + sim.Time(s.rng.Int63n(end-int64(q.From)))
	}
	if k := s.rng.Intn(s.last.nodes + 2); k <= s.last.nodes {
		node := k - 1 // -1 = cluster scope
		q.Node = &node
	}
	return q
}

// inWindow applies a store query's filter to one event: From is
// inclusive, To exclusive (0 = unbounded), and a node keeps only that
// node's events.
func inWindow(ev obs.Event, q store.Query) bool {
	if ev.T < q.From || (q.To > 0 && ev.T >= q.To) {
		return false
	}
	return q.Node == nil || ev.Node == *q.Node
}

func (s *service) details() map[string]float64 {
	out := map[string]float64{"queries": float64(len(s.queryMS))}
	if len(s.queryMS) > 0 {
		out["query_p50_ms"] = median(s.queryMS)
	}
	if p90, ok := percentile(s.queryMS, 90); ok {
		out["query_p90_ms"] = p90
	}
	return out
}

// call sends one request and decodes the JSON response.
func (s *service) call(method, path string, body []byte, status int, out any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != status {
		return fmt.Errorf("service-jobs: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (s *service) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("service-jobs: GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// close stops the event stream and drains the server, then removes its
// state directory.
func (s *service) close() error {
	if s.stream != nil {
		s.stream.close()
		s.stream = nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	s.client.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// ---- queue-event stream ----

// jobTimes are a job's queue transitions as the server stamped them.
type jobTimes struct {
	enqueued, leased, completed time.Time
	leases                      int
}

// queueStream reads GET /events (queue events as NDJSON) on its own
// connection and hands each job's transitions to whoever awaits them.
type queueStream struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	jobs    map[string]*jobTimes
	failed  map[string]string
	changed chan struct{} // closed and replaced on every update
	err     error
}

func openQueueStream(u string) (*queueStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("service-jobs: GET /events: %s", resp.Status)
	}
	qs := &queueStream{
		cancel:  cancel,
		done:    make(chan struct{}),
		jobs:    make(map[string]*jobTimes),
		failed:  make(map[string]string),
		changed: make(chan struct{}),
	}
	go qs.read(resp.Body)
	return qs, nil
}

func (qs *queueStream) read(body io.ReadCloser) {
	defer close(qs.done)
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev queue.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			qs.finish(err)
			return
		}
		qs.note(ev)
	}
	err := sc.Err()
	if err == nil {
		err = errors.New("service-jobs: queue-event stream ended")
	}
	qs.finish(err)
}

func (qs *queueStream) note(ev queue.Event) {
	if ev.Job == "" {
		return
	}
	qs.mu.Lock()
	defer qs.mu.Unlock()
	t := qs.jobs[ev.Job]
	if t == nil {
		t = &jobTimes{}
		qs.jobs[ev.Job] = t
	}
	switch ev.Kind {
	case queue.EvEnqueued:
		t.enqueued = ev.At
	case queue.EvLeased:
		t.leased = ev.At
		t.leases++
	case queue.EvCompleted:
		t.completed = ev.At
	case queue.EvFailed, queue.EvDead:
		qs.failed[ev.Job] = ev.Kind + ": " + ev.Err
	default:
		return
	}
	close(qs.changed)
	qs.changed = make(chan struct{})
}

func (qs *queueStream) finish(err error) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	qs.err = err
	close(qs.changed)
	qs.changed = make(chan struct{})
}

// await blocks until job id's completed event arrives and returns (and
// forgets) its transitions.
func (qs *queueStream) await(id string) (jobTimes, error) {
	timeout := time.NewTimer(jobTimeout)
	defer timeout.Stop()
	for {
		qs.mu.Lock()
		t, changed, err := qs.jobs[id], qs.changed, qs.err
		if msg, ok := qs.failed[id]; ok {
			delete(qs.failed, id)
			qs.mu.Unlock()
			return jobTimes{}, fmt.Errorf("service-jobs: job %s %s", id, msg)
		}
		if t != nil && !t.completed.IsZero() {
			delete(qs.jobs, id)
			qs.mu.Unlock()
			return *t, nil
		}
		qs.mu.Unlock()
		if err != nil {
			return jobTimes{}, err
		}
		select {
		case <-changed:
		case <-timeout.C:
			return jobTimes{}, fmt.Errorf("service-jobs: job %s did not complete within %v", id, jobTimeout)
		}
	}
}

// close ends the stream and waits for its reader to exit.
func (qs *queueStream) close() {
	qs.cancel()
	<-qs.done
}
