package obs

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestEventJSONRoundTrip(t *testing.T) {
	ev := Event{
		Seq:     42,
		T:       sim.Time(1_500_000),
		Kind:    KindJobSwitch,
		Node:    ClusterScope,
		Job:     "LU-2",
		OutJob:  "LU-1",
		PID:     3,
		OutPID:  4,
		Pages:   128,
		Scanned: 512,
		Ranks:   4,
		Dur:     sim.Duration(250),
		Write:   true,
		Prio:    "demand",
	}
	data, err := ev.marshal(t)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"JobSwitch"`) {
		t.Fatalf("kind not symbolic: %s", data)
	}
	got, err := ReadJSONL(bytes.NewReader(append(data, '\n')))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], ev) {
		t.Fatalf("round trip: got %+v, want %+v", got, ev)
	}
}

// marshal encodes through the JSONL sink so tests exercise the same path
// the event log uses.
func (ev Event) marshal(t *testing.T) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.Emit(ev)
	if err := s.Flush(); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

func TestKindUnknownRejected(t *testing.T) {
	var k Kind
	if err := k.UnmarshalJSON([]byte(`"NoSuchKind"`)); err == nil {
		t.Fatal("unknown kind name accepted")
	}
	if err := k.UnmarshalJSON([]byte(`17`)); err == nil {
		t.Fatal("numeric kind accepted")
	}
	if _, err := Kind(99).MarshalJSON(); err == nil {
		t.Fatal("unknown kind value marshalled")
	}
}

func TestBusStampsSequence(t *testing.T) {
	ring := NewRing(8)
	bus := NewBus(ring)
	for i := 0; i < 3; i++ {
		bus.Emit(Event{Kind: KindReclaimScan})
	}
	if bus.Emitted() != 3 {
		t.Fatalf("emitted = %d", bus.Emitted())
	}
	for i, ev := range ring.Events() {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	// A nil bus must be inert.
	var nb *Bus
	nb.Emit(Event{Kind: KindJobSwitch})
	if nb.Emitted() != 0 {
		t.Fatal("nil bus counted an emission")
	}
}

// TestOptionsWithSinks checks that WithSinks never writes through to the
// options it copies: concurrent runs add their own sinks to one shared
// Options.
func TestOptionsWithSinks(t *testing.T) {
	a, b := NewCountSink(), NewCountSink()
	if o := (*Options)(nil).WithSinks(a); len(o.Sinks) != 1 || o.Sinks[0] != a {
		t.Fatalf("nil.WithSinks(a).Sinks = %v", o.Sinks)
	}
	shared := &Options{Sinks: make([]Sink, 1, 4), Metrics: true}
	shared.Sinks[0] = a
	o := shared.WithSinks(b)
	o.KeepEvents = true
	if len(shared.Sinks) != 1 || shared.KeepEvents || shared.Sinks[:2][1] != nil {
		t.Fatalf("WithSinks changed its receiver: %+v", shared)
	}
	if len(o.Sinks) != 2 || o.Sinks[0] != a || o.Sinks[1] != b || !o.Metrics {
		t.Fatalf("WithSinks(b) = %+v", o)
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 10; i++ {
		r.Emit(Event{Seq: uint64(i)})
	}
	if r.Len() != 4 || r.Dropped() != 6 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	got := r.Events()
	want := []uint64{7, 8, 9, 10}
	for i, ev := range got {
		if ev.Seq != want[i] {
			t.Fatalf("events after wrap: got %v at %d, want %v", ev.Seq, i, want[i])
		}
	}
}

func TestJSONLRoundTripMany(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	bus := NewBus(sink)
	events := []Event{
		{T: 10, Kind: KindPageOutBatch, Node: 0, PID: 1, Pages: 32, Prio: "demand"},
		{T: 20, Kind: KindDiskTransfer, Node: 1, Pages: 32, Dur: 9000, Write: true, Prio: "background"},
		{T: 20, Kind: KindBarrierStall, Node: ClusterScope, Job: "a", Ranks: 2, Dur: 400},
	}
	for _, ev := range events {
		bus.Emit(ev)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("got %d events, want %d", len(got), len(events))
	}
	for i, ev := range events {
		ev.Seq = uint64(i + 1)
		if !reflect.DeepEqual(got[i], ev) {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], ev)
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"seq\":1}\nnot json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	got, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || len(got) != 0 {
		t.Fatalf("blank lines: got %v, %v", got, err)
	}
}

func TestNilMetricsAreInert(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Cumulative() != nil {
		t.Fatal("nil histogram accumulated")
	}
	var r *Registry
	if r.Counter("x", "", nil) != nil || r.Gauge("x", "", nil) != nil ||
		r.Histogram("x", "", nil, []float64{1}) != nil {
		t.Fatal("nil registry built metrics")
	}
	r.CounterFunc("x", "", nil, func() float64 { return 1 })
	r.GaugeFunc("y", "", nil, func() float64 { return 1 })
	if err := r.WriteProm(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterRejectsDecrease(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c := NewRegistry().Counter("c", "", nil)
	c.Add(-1)
}

func TestRegistryDedupAndTypeClash(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "help", Labels{"node": "0"})
	b := r.Counter("m", "help", Labels{"node": "0"})
	if a != b {
		t.Fatal("same series produced distinct counters")
	}
	if r.Counter("m", "help", Labels{"node": "1"}) == a {
		t.Fatal("distinct labels shared a counter")
	}
	if len(r.entries) != 2 {
		t.Fatalf("%d series registered, want 2", len(r.entries))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type clash did not panic")
		}
	}()
	r.Gauge("m", "help", nil)
}

// TestRegistryViews checks that a view is read at exposition, keeps its
// first reader when registered again, and cannot be pushed to.
func TestRegistryViews(t *testing.T) {
	r := NewRegistry()
	total, clock := 3, 1.5
	r.CounterFunc("v_total", "A view.", Labels{"node": "0"}, func() float64 { return float64(total) })
	r.CounterFunc("v_total", "A view.", Labels{"node": "0"}, func() float64 { return -1 })
	r.GaugeFunc("v_clock", "", nil, func() float64 { return clock })
	render := func() string {
		var buf bytes.Buffer
		if err := r.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := "# TYPE v_clock gauge\nv_clock 1.5\n# HELP v_total A view.\n# TYPE v_total counter\nv_total{node=\"0\"} 3\n"
	if got := render(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	total, clock = 5, 2
	if got := render(); !strings.Contains(got, "v_clock 2\n") || !strings.Contains(got, `v_total{node="0"} 5`) {
		t.Fatalf("views not re-read at exposition:\n%s", got)
	}
	for name, clash := range map[string]func(){
		"push to a view":  func() { r.Counter("v_total", "", Labels{"node": "0"}) },
		"view of a push":  func() { r.Gauge("g", "", nil); r.GaugeFunc("g", "", nil, func() float64 { return 0 }) },
		"view type clash": func() { r.GaugeFunc("v_total", "", Labels{"node": "1"}, func() float64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			clash()
		}()
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("h", "", nil, []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 8} {
		h.Observe(v)
	}
	// le-buckets are inclusive: 1 lands in le=1, 2 in le=2, 8 in +Inf.
	want := []int64{2, 4, 5, 6}
	if got := h.Cumulative(); !reflect.DeepEqual(got, want) {
		t.Fatalf("cumulative = %v, want %v", got, want)
	}
	if h.Count() != 6 || h.Sum() != 16 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
}

// TestObserveMicrosMatchesFloatBuckets pins ObserveMicros's integer bucket
// lookup to the float rule it replaces: a duration of us microseconds lands
// in the first bucket whose bound is at least float64(us)/1e6, including at
// every bound's edges.
func TestObserveMicrosMatchesFloatBuckets(t *testing.T) {
	bounds := append(append([]float64{}, FaultStallBuckets...), DiskQueueBuckets...)
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	for _, b := range bounds {
		for us := int64(b*1e6) - 3; us <= int64(b*1e6)+3; us++ {
			h := NewRegistry().Histogram("h", "", nil, bounds)
			h.ObserveMicros(us)
			want := sort.SearchFloat64s(bounds, float64(us)/1e6)
			if h.counts[want] != 1 {
				t.Fatalf("%d µs landed in %v, want bucket %d (bound %v)", us, h.counts, want, b)
			}
		}
	}
	if microLimit(1e300) != math.MaxInt64 || microLimit(-1e300) != math.MinInt64 {
		t.Fatal("bounds past 2^53 µs do not clamp")
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_pages_total", "Pages moved.", Labels{"node": "1"}).Add(7)
	r.Counter("sim_pages_total", "Pages moved.", Labels{"node": "0"}).Add(3)
	r.Gauge("sim_clock_seconds", "Sim time.", nil).Set(1.5)
	h := r.Histogram("sim_stall_seconds", "Stalls.", Labels{"node": "0"}, []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP sim_clock_seconds Sim time.
# TYPE sim_clock_seconds gauge
sim_clock_seconds 1.5
# HELP sim_pages_total Pages moved.
# TYPE sim_pages_total counter
sim_pages_total{node="0"} 3
sim_pages_total{node="1"} 7
# HELP sim_stall_seconds Stalls.
# TYPE sim_stall_seconds histogram
sim_stall_seconds_bucket{le="1",node="0"} 1
sim_stall_seconds_bucket{le="2",node="0"} 2
sim_stall_seconds_bucket{le="+Inf",node="0"} 2
sim_stall_seconds_sum{node="0"} 2
sim_stall_seconds_count{node="0"} 2
`
	if buf.String() != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestOptionsBuild(t *testing.T) {
	var o *Options
	if o.Build() != nil {
		t.Fatal("nil options built a setup")
	}
	s := (&Options{}).Build()
	if s == nil || s.Bus != nil || s.Reg != nil || s.Events() != nil {
		t.Fatalf("zero options: %+v", s)
	}
	s = (&Options{KeepEvents: true, Metrics: true}).Build()
	if s.Bus == nil || s.Reg == nil {
		t.Fatal("keep-events + metrics setup incomplete")
	}
	for i := 0; i < DefaultEventCap+2; i++ {
		s.Bus.Emit(Event{Kind: KindBGWriteTick})
	}
	if got := s.Events(); len(got) != DefaultEventCap || got[0].Seq != 3 || got[len(got)-1].Seq != DefaultEventCap+2 {
		t.Fatalf("ring cap not honoured: %d events kept", len(got))
	}
	var prom bytes.Buffer
	if err := s.Reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "\n"+MetricEventsDropped+" 2\n") {
		t.Fatalf("dropped events not counted:\n%s", prom.String())
	}
	count := NewCountSink()
	s = (&Options{Sinks: []Sink{count}}).Build()
	s.Bus.Emit(Event{Kind: KindJobSwitch})
	s.Bus.Emit(Event{Kind: KindJobSwitch})
	if count.Total != 2 || count.ByKind[KindJobSwitch] != 2 {
		t.Fatalf("count sink: %+v", count)
	}
	if s.Events() != nil {
		t.Fatal("events buffered without KeepEvents")
	}
}

func TestNodeObsRegistersPerNodeSeries(t *testing.T) {
	reg := NewRegistry()
	bus := NewBus(NewRing(4))
	n0 := NewNodeObs(reg, bus, 0)
	n1 := NewNodeObs(reg, bus, 1)
	if n0.FaultStall == n1.FaultStall || n0.PageOutBatch == n1.PageOutBatch {
		t.Fatal("nodes share a histogram")
	}
	n0.PageOutBatch.Observe(3)
	if n1.PageOutBatch.Count() != 0 {
		t.Fatal("cross-node leak")
	}
	// Disabled-metrics variant still yields a usable (inert) instrument set.
	off := NewNodeObs(nil, bus, 2)
	off.PageOutBatch.Observe(3)
	off.FaultStall.Observe(1)
	if off.PageOutBatch.Count() != 0 || off.FaultStall.Count() != 0 {
		t.Fatal("nil-registry NodeObs accumulated")
	}
}
