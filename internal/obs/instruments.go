package obs

import "strconv"

// Metric names. All durations are seconds, all sizes are 4 KiB pages.
//
// The counters and the gauge of the first group are views: internal/cluster
// registers each as a read of a total the model already keeps (the vm,
// core, disk and gang Stats, Barrier.WaitTime, the engine's clock and
// event count), taken at exposition. The histograms and the rest are
// pushed where the event happens, because no model counter holds them.
const (
	MetricPagesIn         = "gangsim_pages_in_total"             // counter{node}
	MetricPagesOut        = "gangsim_pages_out_total"            // counter{node}
	MetricBGPagesOut      = "gangsim_bg_pages_out_total"         // counter{node}
	MetricMajorFaults     = "gangsim_major_faults_total"         // counter{node}
	MetricMinorFaults     = "gangsim_minor_faults_total"         // counter{node}
	MetricReclaimPasses   = "gangsim_reclaim_passes_total"       // counter{node}
	MetricPrefaultPages   = "gangsim_prefault_pages_total"       // counter{node}
	MetricBGWritePasses   = "gangsim_bgwrite_passes_total"       // counter{node}
	MetricSwitchEvictions = "gangsim_switch_evictions_total"     // counter{node}
	MetricDiskBusySeconds = "gangsim_disk_busy_seconds_total"    // counter{node}
	MetricDiskSeeks       = "gangsim_disk_seeks_total"           // counter{node}
	MetricDiskRetries     = "gangsim_disk_retries_total"         // counter{node}
	MetricSwitches        = "gangsim_switches_total"             // counter
	MetricQuanta          = "gangsim_quanta_total"               // counter
	MetricJobRequeues     = "gangsim_job_requeues_total"         // counter
	MetricBarrierWait     = "gangsim_barrier_wait_seconds_total" // counter{job}
	MetricSimTime         = "gangsim_sim_time_seconds"           // gauge
	MetricEngineEvents    = "gangsim_engine_events_total"        // counter

	MetricFaultStall     = "gangsim_fault_stall_seconds"   // histogram{node}
	MetricPageOutBatch   = "gangsim_pageout_batch_pages"   // histogram{node}
	MetricFaultsInjected = "gangsim_faults_injected_total" // counter{node,fault}
	MetricNodeCrashes    = "gangsim_node_crashes_total"    // counter{node}
	MetricNodeRestarts   = "gangsim_node_restarts_total"   // counter{node}

	// MetricEventsDropped counts events the in-memory ring evicted to make
	// room. It is registered lazily on the first drop, so drop-free runs
	// expose exactly the series they did before.
	MetricEventsDropped = "gangsim_events_dropped_total" // counter
)

// FaultStallBuckets bounds the fault-stall latency histogram (seconds):
// sub-millisecond trap costs up to multi-second switch storms.
var FaultStallBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// PageOutBatchBuckets bounds the page-out batch-size histogram (pages):
// single-page dribble up to whole-working-set block moves.
var PageOutBatchBuckets = []float64{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
}

// NodeObs bundles one node's instruments: the shared event bus, the span
// tracer and the node-labelled distributions. Totals the model already
// keeps are not here: internal/cluster registers them as views. Any field
// may be nil (that aspect disabled); Bus, Tracer and Histogram are
// nil-safe, so instrumented code only guards on the *NodeObs pointer
// itself.
type NodeObs struct {
	Bus  *Bus
	Node int
	// Tracer is the run's span tracer (nil unless tracing is enabled; all
	// Tracer methods are nil-safe).
	Tracer *Tracer

	FaultStall   *Histogram
	PageOutBatch *Histogram
}

// NewNodeObs builds the instrument set for one node. reg and bus may each
// be nil to disable metrics or events respectively.
func NewNodeObs(reg *Registry, bus *Bus, node int) *NodeObs {
	l := Labels{"node": strconv.Itoa(node)}
	return &NodeObs{
		Bus:          bus,
		Node:         node,
		FaultStall:   reg.Histogram(MetricFaultStall, "Per-fault process stall time in seconds.", l, FaultStallBuckets),
		PageOutBatch: reg.Histogram(MetricPageOutBatch, "Dirty write-back batch size in pages.", l, PageOutBatchBuckets),
	}
}

// DefaultEventCap is the capacity of the ring that Options.KeepEvents
// buffers events in.
const DefaultEventCap = 1 << 16

// Options selects what a run observes. The zero value observes nothing
// (but still builds an inert Setup); a nil *Options disables the layer
// entirely, which is the zero-overhead path.
type Options struct {
	// Sinks receive every event (e.g. a JSONLSink). The caller owns the
	// sinks: the run does not flush or close them.
	Sinks []Sink
	// KeepEvents additionally buffers events in memory, surfaced as
	// RunHandle.Events, keeping the most recent DefaultEventCap.
	KeepEvents bool
	// Metrics enables the metrics registry, surfaced as RunHandle.Metrics.
	Metrics bool
	// Trace enables the causal span tracer (and, with Metrics, the
	// span-duration histograms). Spans never touch the event bus, so a
	// traced run's event log and Prometheus series stay byte-identical to
	// an untraced one.
	Trace bool
	// Ledger enables per-rank makespan attribution (the six-way wall-time
	// decomposition surfaced per job in RunResult and checked by the
	// ledger-conservation audit law).
	Ledger bool
}

// Setup is the built observability plumbing for one run.
type Setup struct {
	// Bus is nil when the options included no event destination.
	Bus *Bus
	// Reg is nil unless Options.Metrics was set.
	Reg *Registry
	// Tracer is nil unless Options.Trace was set.
	Tracer *Tracer

	ring   *Ring
	ledger bool
}

// WithSinks returns a copy of o (of the zero Options when o is nil) whose
// Sinks are o's followed by sinks. o itself is left unchanged, so a caller
// can add its own consumers to options it was handed.
func (o *Options) WithSinks(sinks ...Sink) *Options {
	var c Options
	if o != nil {
		c = *o
	}
	c.Sinks = append(append([]Sink(nil), c.Sinks...), sinks...)
	return &c
}

// Build assembles the bus, sinks, registry and tracer an Options
// describes. A nil receiver yields a nil Setup. A run whose sinks only fold
// events does not copy every event into a ring that nothing reads.
func (o *Options) Build() *Setup {
	if o == nil {
		return nil
	}
	s := &Setup{ledger: o.Ledger}
	sinks := append([]Sink(nil), o.Sinks...)
	if o.KeepEvents {
		s.ring = NewRing(DefaultEventCap)
		sinks = append(sinks, s.ring)
	}
	if len(sinks) > 0 {
		s.Bus = NewBus(sinks...)
	}
	if o.Metrics {
		s.Reg = NewRegistry()
	}
	if o.Trace {
		s.Tracer = NewTracer(DefaultSpanCap)
		if s.Reg != nil {
			s.Tracer.FaultService = s.Reg.Histogram(MetricTraceFaultService,
				"Fault span durations (trap to wakeup).", nil, FaultStallBuckets)
			s.Tracer.DiskQueue = s.Reg.Histogram(MetricTraceDiskQueue,
				"Disk request queue-wait span durations.", nil, DiskQueueBuckets)
			s.Tracer.BarrierStall = s.Reg.Histogram(MetricTraceBarrierStall,
				"Barrier generation span durations (first arrival to release).", nil, FaultStallBuckets)
		}
	}
	if s.ring != nil && s.Reg != nil {
		reg := s.Reg
		s.ring.SetOnDrop(func() {
			reg.Counter(MetricEventsDropped,
				"Events evicted from the in-memory ring to make room.", nil).Inc()
		})
	}
	return s
}

// Events returns the buffered events (nil unless KeepEvents was set).
func (s *Setup) Events() []Event {
	if s == nil || s.ring == nil {
		return nil
	}
	return s.ring.Events()
}

// Ledger reports whether per-rank attribution ledgers are enabled.
func (s *Setup) Ledger() bool { return s != nil && s.ledger }
