package obs

import (
	"fmt"

	"repro/internal/sim"
)

// SpanID identifies one span within a run's Tracer. IDs are assigned in
// Begin/Emit order starting at 1; 0 means "no span" and is the parent of
// root spans. IDs stay valid as references after the span closes, so a
// fault span can point at the switch epoch that caused it even though the
// epoch closed long before the fault fired.
type SpanID int64

// SpanKind identifies the lifecycle a span covers.
type SpanKind uint8

const (
	// SpanSwitchEpoch covers one coordinated job switch from the moment
	// the gang scheduler hands the cluster over until the incoming job's
	// adaptive page-in replays have completed (zero-width when adaptive
	// page-in is off). It is the causal root for switch-induced paging.
	SpanSwitchEpoch SpanKind = iota + 1
	// SpanPageOutDrain covers one node's switch-time page-out: from the
	// synchronous eviction until the last dirty write-back it queued
	// reaches the device.
	SpanPageOutDrain
	// SpanPrefault covers one adaptive page-in replay: from the record
	// replay until the last prefetch transfer lands.
	SpanPrefault
	// SpanFault covers one page fault from trap to wakeup.
	SpanFault
	// SpanDiskQueue covers the time a disk request waited in the device
	// queue before service began.
	SpanDiskQueue
	// SpanDiskTransfer covers one disk transfer's service time.
	SpanDiskTransfer
	// SpanBarrierGen covers one barrier generation from the first rank's
	// arrival until the release completes.
	SpanBarrierGen
)

var spanKindNames = map[SpanKind]string{
	SpanSwitchEpoch:  "SwitchEpoch",
	SpanPageOutDrain: "PageOutDrain",
	SpanPrefault:     "Prefault",
	SpanFault:        "Fault",
	SpanDiskQueue:    "DiskQueue",
	SpanDiskTransfer: "DiskTransfer",
	SpanBarrierGen:   "BarrierGen",
}

func (k SpanKind) String() string {
	if s, ok := spanKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("spankind(%d)", int(k))
}

// MarshalJSON renders the span kind as its symbolic name.
func (k SpanKind) MarshalJSON() ([]byte, error) {
	s, ok := spanKindNames[k]
	if !ok {
		return nil, fmt.Errorf("obs: marshalling unknown span kind %d", int(k))
	}
	return []byte(`"` + s + `"`), nil
}

// UnmarshalJSON parses a symbolic span kind name.
func (k *SpanKind) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("obs: span kind is not a JSON string: %s", data)
	}
	name := string(data[1 : len(data)-1])
	for kind, s := range spanKindNames {
		if s == name {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("obs: unknown span kind %q", name)
}

// Span is one closed interval of simulated time with a causal parent.
// Like Event it is a flat union: which payload fields are meaningful
// depends on Kind.
type Span struct {
	ID     SpanID   `json:"id"`
	Parent SpanID   `json:"parent,omitempty"`
	Kind   SpanKind `json:"kind"`
	// Node is the machine the span belongs to, or ClusterScope (-1) for
	// cluster-wide spans (switch epochs, barrier generations).
	Node  int      `json:"node"`
	Start sim.Time `json:"start"`
	End   sim.Time `json:"end"`

	Job   string `json:"job,omitempty"`
	PID   int    `json:"pid,omitempty"`
	Pages int    `json:"pages,omitempty"`
	Ranks int    `json:"ranks,omitempty"`
}

// Duration is the span's extent in simulated time.
func (s Span) Duration() sim.Duration { return s.End.Sub(s.Start) }

// Span-duration histogram names (seconds), fed by the Tracer.
const (
	MetricTraceFaultService = "gangsim_trace_fault_service_seconds" // histogram
	MetricTraceDiskQueue    = "gangsim_trace_disk_queue_seconds"    // histogram
	MetricTraceBarrierStall = "gangsim_trace_barrier_stall_seconds" // histogram
)

// DiskQueueBuckets bounds the disk queue-wait histogram (seconds): an idle
// device serves immediately; a thrashing switch can queue for seconds.
var DiskQueueBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// DefaultSpanCap is the closed-span retention of a run with Options.Trace
// set.
const DefaultSpanCap = 1 << 16

// cspan is the Tracer's internal span representation: pointer-free (the
// job name is an index into the intern table) so the multi-thousand-entry
// retention ring is opaque to the garbage collector — it costs one clear at
// allocation, never a scan.
type cspan struct {
	id     SpanID
	parent SpanID
	start  sim.Time
	end    sim.Time
	node   int32
	pid    int32
	pages  int32
	ranks  int32
	jobIdx int16 // -1 when the span has no job
	kind   SpanKind
}

func (c cspan) span(jobs []string) Span {
	s := Span{
		ID: c.id, Parent: c.parent, Kind: c.kind, Node: int(c.node),
		Start: c.start, End: c.end,
		PID: int(c.pid), Pages: int(c.pages), Ranks: int(c.ranks),
	}
	if c.jobIdx >= 0 {
		s.Job = jobs[c.jobIdx]
	}
	return s
}

// openSpan is the begun-but-not-ended state the Tracer keeps per live span.
type openSpan struct {
	id     SpanID
	parent SpanID
	start  sim.Time
	node   int32
	pid    int32
	jobIdx int16
	kind   SpanKind
}

// Tracer opens and closes causal spans in simulated time. It keeps the
// most recent closed spans up to its capacity (oldest evicted first,
// counted as dropped) and feeds the span-duration histograms as spans
// close. A nil *Tracer is valid and does nothing, so instrumented code
// pays only a nil check when tracing is off. The Tracer is driven
// exclusively from the (single-threaded, deterministic) simulation
// goroutine, so identical seeds yield identical span logs.
type Tracer struct {
	closed  []cspan
	max     int // retention cap; closed grows lazily toward it
	next    int // ring cursor once closed is full
	wrapped bool
	dropped uint64

	// jobs interns span job names; a run has a handful, so linear lookup.
	jobs []string

	// open holds begun-but-not-ended spans in ascending ID order. Only a
	// handful are ever live at once (one epoch, a drain or prefault per
	// node, in-flight faults), so an ordered slice with linear search beats
	// a map on both CPU (no hashing, no write barriers per op) and the
	// determinism story (CloseAll wants ID order anyway).
	open  []openSpan
	last  SpanID
	epoch SpanID // most recent switch-epoch span

	// Span-duration histograms; nil (and therefore no-ops) unless the run
	// enabled metrics alongside tracing.
	FaultService *Histogram
	DiskQueue    *Histogram
	BarrierStall *Histogram
}

// NewTracer returns a tracer retaining up to capacity closed spans. The
// backing store grows geometrically on demand rather than being allocated
// upfront: short runs keep only what they produced, so per-run tracer cost
// scales with spans closed, not with the retention cap.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &Tracer{max: capacity}
}

// intern maps a job name to its index in the jobs table (-1 for "").
func (t *Tracer) intern(job string) int16 {
	if job == "" {
		return -1
	}
	for i, j := range t.jobs {
		if j == job {
			return int16(i)
		}
	}
	t.jobs = append(t.jobs, job)
	return int16(len(t.jobs) - 1)
}

// Begin opens a span at now and returns its ID. Safe on a nil tracer
// (returns 0, which End ignores).
func (t *Tracer) Begin(now sim.Time, kind SpanKind, parent SpanID, node int, job string, pid int) SpanID {
	if t == nil {
		return 0
	}
	t.last++
	id := t.last
	t.open = append(t.open, openSpan{
		id: id, parent: parent, start: now,
		node: int32(node), pid: int32(pid), jobIdx: t.intern(job), kind: kind,
	})
	return id
}

// End closes the span at now, recording pages as its payload. Ending an
// unknown (or zero) ID is a no-op, so callers need not track whether the
// tracer was on when the span would have begun.
func (t *Tracer) End(now sim.Time, id SpanID, pages int) {
	if t == nil || id == 0 {
		return
	}
	// Spans mostly close oldest-first (faults resolve in disk order), so
	// scan forward; the slice stays in ID order across the removal.
	for i, o := range t.open {
		if o.id != id {
			continue
		}
		copy(t.open[i:], t.open[i+1:])
		t.open = t.open[:len(t.open)-1]
		t.push(cspan{
			id: id, parent: o.parent, start: o.start, end: now,
			node: o.node, pid: o.pid, pages: int32(pages),
			jobIdx: o.jobIdx, kind: o.kind,
		})
		return
	}
}

// Reserve assigns and returns the next span ID without opening a span, for
// callers that emit retrospectively (EmitReserved) but need the ID up
// front as the causal parent of child spans. Page faults use this: the
// fault span's bounds are only known at wakeup, but the disk reads it
// triggers parent to it immediately. Safe on a nil tracer (returns 0,
// which EmitReserved ignores).
func (t *Tracer) Reserve() SpanID {
	if t == nil {
		return 0
	}
	t.last++
	return t.last
}

// EmitReserved records a span under a previously Reserved ID, bypassing
// the open-span table — the cheap path for high-volume span kinds. A zero
// id (tracing was off at Reserve time) is a no-op.
func (t *Tracer) EmitReserved(id SpanID, kind SpanKind, parent SpanID, node, pid int, start, end sim.Time, pages int) {
	if t == nil || id == 0 {
		return
	}
	t.push(cspan{
		id: id, parent: parent, start: start, end: end,
		node: int32(node), pid: int32(pid), pages: int32(pages),
		jobIdx: -1, kind: kind,
	})
}

// Emit records a span retrospectively with explicit bounds, for callers
// that only learn the interval after the fact (disk queue wait and service
// are both known at completion time). It returns the new span's ID.
func (t *Tracer) Emit(kind SpanKind, parent SpanID, node int, pid int, start, end sim.Time, pages int) SpanID {
	return t.EmitSpan(Span{
		Parent: parent, Kind: kind, Node: node,
		Start: start, End: end, PID: pid, Pages: pages,
	})
}

// EmitSpan records a fully populated span retrospectively, assigning and
// returning the next ID (s.ID is overwritten). Safe on a nil tracer.
func (t *Tracer) EmitSpan(s Span) SpanID {
	if t == nil {
		return 0
	}
	t.last++
	t.push(cspan{
		id: t.last, parent: s.Parent, start: s.Start, end: s.End,
		node: int32(s.Node), pid: int32(s.PID), pages: int32(s.Pages),
		ranks: int32(s.Ranks), jobIdx: t.intern(s.Job), kind: s.Kind,
	})
	return t.last
}

// push retains one closed span and feeds the matching histogram.
func (t *Tracer) push(s cspan) {
	switch s.kind {
	case SpanFault:
		t.FaultService.ObserveMicros(int64(s.end.Sub(s.start)))
	case SpanDiskQueue:
		t.DiskQueue.ObserveMicros(int64(s.end.Sub(s.start)))
	case SpanBarrierGen:
		t.BarrierStall.ObserveMicros(int64(s.end.Sub(s.start)))
	}
	if len(t.closed) < t.max {
		if len(t.closed) == cap(t.closed) {
			// Double explicitly (append's growth factor shrinks for large
			// element types) and clamp at the cap so the final doubling
			// never allocates retention that can't be used.
			n := 2 * cap(t.closed)
			if n < 2048 {
				n = 2048
			}
			if n > t.max {
				n = t.max
			}
			grown := make([]cspan, len(t.closed), n)
			copy(grown, t.closed)
			t.closed = grown
		}
		t.closed = append(t.closed, s)
		return
	}
	t.closed[t.next] = s
	t.next++
	if t.next == len(t.closed) {
		t.next = 0
	}
	t.wrapped = true
	t.dropped++
}

// Latch closes an open span after its last asynchronous completion: Hold
// counts completions to come, Release retires one, and Arm marks the
// synchronous part done. The span ends, with the pages added as its
// payload, at the Release or Arm that leaves it armed with nothing held,
// so a completion fired inside the holding call cannot end it early. A
// nil *Latch does nothing.
type Latch struct {
	tracer      *Tracer
	span        SpanID
	held, pages int
	armed       bool
}

// NewLatch returns a latch on the open span id (nil without a span).
func NewLatch(t *Tracer, id SpanID) *Latch {
	if t == nil || id == 0 {
		return nil
	}
	return &Latch{tracer: t, span: id}
}

// Span returns the latched span, the parent of the work it waits for.
func (l *Latch) Span() SpanID {
	if l == nil {
		return 0
	}
	return l.span
}

// Hold counts n more completions to wait for.
func (l *Latch) Hold(n int) {
	if l != nil {
		l.held += n
	}
}

// Add adds pages to the span's payload.
func (l *Latch) Add(pages int) {
	if l != nil {
		l.pages += pages
	}
}

// Release retires one completion at now.
func (l *Latch) Release(now sim.Time) {
	if l != nil {
		l.held--
		l.end(now)
	}
}

// Arm marks the synchronous part done at now.
func (l *Latch) Arm(now sim.Time) {
	if l != nil {
		l.armed = true
		l.end(now)
	}
}

func (l *Latch) end(now sim.Time) {
	if l.armed && l.held == 0 {
		l.tracer.End(now, l.span, l.pages)
	}
}

// SetEpoch records the current switch-epoch span; subsequent faults
// parent to it until the next switch.
func (t *Tracer) SetEpoch(id SpanID) {
	if t != nil {
		t.epoch = id
	}
}

// Epoch returns the most recent switch-epoch span ID (0 before the first
// switch). Safe on a nil tracer.
func (t *Tracer) Epoch() SpanID {
	if t == nil {
		return 0
	}
	return t.epoch
}

// CloseAll closes every still-open span at now, in ID order so the result
// is deterministic (t.open is already ID-ordered). Call at end of run so
// interrupted lifecycles (e.g. an epoch whose prefetch never landed) still
// appear in the export.
func (t *Tracer) CloseAll(now sim.Time) {
	if t == nil {
		return
	}
	for len(t.open) > 0 {
		t.End(now, t.open[0].id, 0)
	}
}

// Spans returns the retained closed spans in close order.
func (t *Tracer) Spans() []Span {
	if t == nil || len(t.closed) == 0 {
		return nil
	}
	out := make([]Span, 0, len(t.closed))
	for _, c := range t.closed[t.next:] { // t.next is 0 until the ring wraps
		out = append(out, c.span(t.jobs))
	}
	for _, c := range t.closed[:t.next] {
		out = append(out, c.span(t.jobs))
	}
	return out
}

// Count reports how many closed spans are retained, without the export
// copy Spans performs.
func (t *Tracer) Count() int {
	if t == nil {
		return 0
	}
	return len(t.closed)
}

// Dropped reports how many closed spans were evicted to make room.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Open reports how many spans are currently open.
func (t *Tracer) Open() int {
	if t == nil {
		return 0
	}
	return len(t.open)
}
