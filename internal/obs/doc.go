// Package obs is the simulator's unified observability layer: a structured
// event bus carrying typed, simulated-timestamped events, and a metrics
// registry of counters, gauges and histograms with Prometheus-style text
// exposition.
//
// # Events
//
// Every significant mechanism action emits one Event on the run's Bus:
//
//	JobSwitch     the gang scheduler moved the cluster between jobs
//	PageOutBatch  reclaim queued one coalesced dirty write-back batch
//	PrefaultBatch adaptive page-in replayed a page record
//	ReclaimScan   one try_to_free_pages-style reclaim pass
//	BGWriteTick   one background-writer pass flushed dirty pages
//	BarrierStall  a rank barrier opened after accumulating wait time
//	DiskTransfer  the paging device completed one request
//
// Events are flat structs (no per-kind allocation) and serialise to
// deterministic JSON, so a JSONL sink produces byte-identical logs for a
// fixed simulation seed. Sinks are pluggable: Ring keeps the tail in
// memory for tests and RunHandle.Events, JSONLSink streams to a writer for
// tooling, CountSink tallies kinds. A nil *Bus is a valid, free-to-emit-to
// bus: every instrumented code path guards with a single nil check, so a
// run without observability pays close to zero cost.
//
// # Metrics
//
// Registry holds named metrics, optionally labelled (per-node instruments
// use a "node" label, per-job ones a "job" label). Counters and gauges are
// float64, either pushed by instrumented code or registered as views
// (CounterFunc, GaugeFunc) that read a total the model already keeps when
// WriteProm renders the Prometheus text format. Histograms use fixed
// cumulative buckets, which lets them express distributions — fault-stall
// latency, page-out batch size — that the flat end-of-run totals in
// internal/metrics cannot.
//
// All types are single-goroutine like the simulator itself; they are not
// safe for concurrent use.
package obs
