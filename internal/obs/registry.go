package obs

import (
	"fmt"
	"sort"
	"strings"
)

// MetricType distinguishes registry entries.
type MetricType string

const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Labels attaches dimension values to a metric instance (e.g. node="0").
type Labels map[string]string

// canon renders labels in the canonical `{k="v",...}` form with sorted
// keys, or "" when empty. The canonical form keys the registry index and
// the exposition output, making both deterministic.
func (l Labels) canon() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing value. All methods are safe on a
// nil receiver (a disabled metric), costing one branch.
type Counter struct{ v float64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add increases the counter by d, which must not be negative.
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	if d < 0 {
		panic(fmt.Sprintf("obs: counter decrease by %v", d))
	}
	c.v += d
}

// Value reports the current total (0 on a nil counter).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a value that can go up and down. Nil-safe like Counter.
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Add shifts the value by d (negative allowed).
func (g *Gauge) Add(d float64) {
	if g != nil {
		g.v += d
	}
}

// Value reports the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram accumulates observations into fixed cumulative buckets, plus a
// running sum and count. Nil-safe like Counter.
type Histogram struct {
	bounds    []float64 // sorted upper bounds; +Inf bucket is implicit
	counts    []int64   // len(bounds)+1, non-cumulative per-bucket tallies
	sum       float64
	sumMicros int64 // exact integer part of the sum, in microseconds
	count     int64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// ObserveMicros records a duration of us integer microseconds. Unlike
// Observe, the sum is accumulated exactly in integers, so the rendered
// aggregate is independent of observation order and free of float
// rounding: the Prometheus goldens hold these integer-microsecond sums.
func (h *Histogram) ObserveMicros(us int64) {
	if h == nil {
		return
	}
	v := float64(us) / 1e6
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sumMicros += us
	h.count++
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum reports the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum + float64(h.sumMicros)/1e6
}

// Bounds returns the bucket upper bounds (excluding the implicit +Inf).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// Cumulative returns the cumulative bucket counts, one per bound plus the
// trailing +Inf bucket (== Count).
func (h *Histogram) Cumulative() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	var run int64
	for i, c := range h.counts {
		run += c
		out[i] = run
	}
	return out
}

// Quantile estimates the q-quantile (0..1) by linear interpolation inside
// the containing bucket, taking the bucket's upper bound for the unbounded
// tail. It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	var run int64
	for i, c := range h.counts {
		prev := run
		run += c
		if float64(run) < rank || c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := lo
		if i < len(h.bounds) {
			hi = h.bounds[i]
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}

// metricEntry is one registered series: a name, canonical labels and one
// typed value.
type metricEntry struct {
	name   string
	labels string // canonical form, "" when unlabelled
	lbls   Labels // original pairs, for exposition with extra labels
	typ    MetricType
	help   string

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

func (m *metricEntry) id() string { return m.name + m.labels }

// Registry holds metrics by (name, labels). Registering the same series
// twice returns the existing instance; registering a name under two
// different types panics. A nil *Registry is valid and returns nil (also
// valid, inert) metrics from every constructor.
type Registry struct {
	entries []*metricEntry
	index   map[string]*metricEntry
	types   map[string]MetricType
	help    map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		index: make(map[string]*metricEntry),
		types: make(map[string]MetricType),
		help:  make(map[string]string),
	}
}

func (r *Registry) register(name, help string, labels Labels, typ MetricType) *metricEntry {
	if name == "" {
		panic("obs: metric without a name")
	}
	if prev, ok := r.types[name]; ok && prev != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, prev, typ))
	}
	canon := labels.canon()
	if m, ok := r.index[name+canon]; ok {
		return m
	}
	lbls := make(Labels, len(labels))
	for k, v := range labels {
		lbls[k] = v
	}
	m := &metricEntry{name: name, labels: canon, lbls: lbls, typ: typ, help: help}
	r.entries = append(r.entries, m)
	r.index[m.id()] = m
	r.types[name] = typ
	if _, ok := r.help[name]; !ok {
		r.help[name] = help
	}
	return m
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(name, help, labels, TypeCounter)
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(name, help, labels, TypeGauge)
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// Histogram registers (or returns the existing) histogram series with the
// given bucket upper bounds (must be sorted ascending and non-empty).
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q without buckets", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending: %v", name, bounds))
		}
	}
	m := r.register(name, help, labels, TypeHistogram)
	if m.hist == nil {
		m.hist = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]int64, len(bounds)+1),
		}
	}
	return m.hist
}

// Len reports the number of registered series.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.entries)
}

// SnapshotValue is the frozen reading of one series.
type SnapshotValue struct {
	Type  MetricType
	Value float64 // counter / gauge value
	// Histogram readings.
	Sum     float64
	Count   int64
	Buckets []int64 // non-cumulative per-bucket counts
}

// Snapshot maps series id (name + canonical labels) to a frozen reading.
type Snapshot map[string]SnapshotValue

// Snapshot freezes every series. Use with Delta for per-quantum readings.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	out := make(Snapshot, len(r.entries))
	for _, m := range r.entries {
		sv := SnapshotValue{Type: m.typ}
		switch m.typ {
		case TypeCounter:
			sv.Value = m.counter.Value()
		case TypeGauge:
			sv.Value = m.gauge.Value()
		case TypeHistogram:
			sv.Sum = m.hist.sum
			sv.Count = m.hist.count
			sv.Buckets = append([]int64(nil), m.hist.counts...)
		}
		out[m.id()] = sv
	}
	return out
}

// Delta returns s minus prev, series by series: counters and histograms
// subtract (a series absent from prev counts from zero); gauges keep their
// current value, since a gauge difference has no meaning.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for id, cur := range s {
		p, ok := prev[id]
		if !ok || cur.Type == TypeGauge {
			out[id] = cur
			continue
		}
		d := SnapshotValue{Type: cur.Type, Value: cur.Value - p.Value, Sum: cur.Sum - p.Sum, Count: cur.Count - p.Count}
		if cur.Buckets != nil {
			d.Buckets = make([]int64, len(cur.Buckets))
			for i := range cur.Buckets {
				d.Buckets[i] = cur.Buckets[i]
				if i < len(p.Buckets) {
					d.Buckets[i] -= p.Buckets[i]
				}
			}
		}
		out[id] = d
	}
	return out
}
