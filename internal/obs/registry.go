package obs

import (
	"fmt"
	"math"
	"slices"
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
	micros    []int64   // per bound, the longest whole-microsecond duration at or below it
	counts    []int64   // len(bounds)+1, non-cumulative per-bucket tallies
	sum       float64
	sumMicros int64 // exact integer part of the sum, in microseconds
	count     int64

	// lastUs and lastIdx memoize ObserveMicros's bucket search: fault
	// stalls repeat one duration (a demand-zero fill's) thousands of times
	// in a row. lastUs starts at -1, which no duration equals.
	lastUs  int64
	lastIdx int
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i, _ := slices.BinarySearch(h.bounds, v) // first bound >= v
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
	i := h.lastIdx
	if us != h.lastUs {
		i, _ = slices.BinarySearch(h.micros, us) // same bucket as bounds vs float64(us)/1e6
		h.lastUs, h.lastIdx = us, i
	}
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

// metricEntry is one registered series: a name, canonical labels and one
// typed value, either pushed (counter, gauge, hist) or read at exposition
// (view).
type metricEntry struct {
	name   string
	labels string   // canonical form, "" when unlabelled
	lbls   Labels   // original pairs, for exposition with extra labels
	les    []string // a histogram's labels with each bucket's le pair, +Inf last; built at first exposition
	typ    MetricType
	help   string

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	view    func() float64
}

func (m *metricEntry) id() string { return m.name + m.labels }

// value reads a counter or gauge series.
func (m *metricEntry) value() float64 {
	switch {
	case m.view != nil:
		return m.view()
	case m.counter != nil:
		return m.counter.Value()
	}
	return m.gauge.Value()
}

// Registry holds metrics by (name, labels). Registering the same series
// twice returns the existing instance (or keeps the existing view);
// registering a name under two different types, or one series both as a
// view and as a pushed metric, panics. A nil *Registry is valid and
// returns nil (also valid, inert) metrics from every constructor.
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

// pushed registers a series that instrumented code updates.
func (r *Registry) pushed(name, help string, labels Labels, typ MetricType) *metricEntry {
	m := r.register(name, help, labels, typ)
	if m.view != nil {
		panic(fmt.Sprintf("obs: series %s is a view, not a pushed %s", m.id(), typ))
	}
	return m
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	m := r.pushed(name, help, labels, TypeCounter)
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
	m := r.pushed(name, help, labels, TypeGauge)
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// CounterFunc registers a counter series whose value is read from fn at
// exposition: a view of a total the model already keeps, so nothing
// pushes a copy. fn must never decrease. WriteProm calls it on the
// goroutine that renders the registry, which must be the one that owns
// what fn reads.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.viewOf(name, help, labels, TypeCounter, fn)
}

// GaugeFunc registers a gauge series read from fn at exposition, like
// CounterFunc.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.viewOf(name, help, labels, TypeGauge, fn)
}

func (r *Registry) viewOf(name, help string, labels Labels, typ MetricType, fn func() float64) {
	if r == nil {
		return
	}
	m := r.register(name, help, labels, typ)
	if m.counter != nil || m.gauge != nil {
		panic(fmt.Sprintf("obs: series %s is pushed, not a view", m.id()))
	}
	if m.view == nil {
		m.view = fn
	}
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
			micros: make([]int64, len(bounds)),
			counts: make([]int64, len(bounds)+1),
			lastUs: -1,
		}
		for i, b := range bounds {
			m.hist.micros[i] = microLimit(b)
		}
	}
	return m.hist
}

// microLimit returns the largest whole-microsecond duration us with
// float64(us)/1e6 <= b. us/1e6 rises monotonically with us, so "b >=
// us/1e6" is "us <= microLimit(b)" and ObserveMicros compares integers.
// Bounds past ±2^53 µs (285 years) clamp.
func microLimit(b float64) int64 {
	const exact = 1 << 53
	x := b * 1e6
	switch {
	case x >= exact:
		return math.MaxInt64
	case x <= -exact:
		return math.MinInt64
	}
	u := int64(math.Floor(x))
	for float64(u+1)/1e6 <= b {
		u++
	}
	for float64(u)/1e6 > b {
		u--
	}
	return u
}
