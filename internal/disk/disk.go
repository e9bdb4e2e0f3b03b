package disk

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Slot identifies one page-sized extent on the paging device. Slot numbers
// are positions: slots n and n+1 are physically adjacent.
type Slot int64

// InvalidSlot marks "no slot assigned".
const InvalidSlot Slot = -1

// Run is a contiguous extent of N slots starting at Start.
type Run struct {
	Start Slot
	N     int
}

// End returns the first slot after the run.
func (r Run) End() Slot { return r.Start + Slot(r.N) }

// Priority orders queued requests. Lower value is more urgent.
type Priority int

const (
	// Demand requests stall a process (page fault, switch-time paging).
	Demand Priority = iota
	// Background requests come from the background-write daemon.
	Background
)

func (p Priority) String() string {
	switch p {
	case Demand:
		return "demand"
	case Background:
		return "background"
	default:
		return fmt.Sprintf("priority(%d)", int(p))
	}
}

// Request is one disk transaction over one contiguous run of slots. The
// disk keeps the request's service state on the request itself, and the
// engine events that retry and complete it are method values bound the
// first time they are needed, so a caller that reuses its requests submits
// them without allocating. A request may be submitted again once its Done
// has been called; one that Reset dropped never completes, and must not be
// submitted again, because a pending event of the old service may still
// refer to it.
type Request struct {
	Run   Run
	Write bool
	Prio  Priority
	// Done is invoked at completion with the time the request spent in
	// service (queueing excluded). May be nil. The disk reads nothing of the
	// request once Done is called, so Done may submit it again at once.
	Done func(service sim.Duration)
	// Parent, when tracing, is the span that caused this request (a fault,
	// prefault replay or page-out drain); the queue-wait and transfer spans
	// emitted at completion hang off it.
	Parent obs.SpanID

	d        *Disk
	submitAt sim.Time     // stamped by Submit for the queue-wait span
	attempt  int          // failed service attempts so far
	start    sim.Time     // when the current service began
	svc      sim.Duration // its service time
	epoch    uint64       // the disk's epoch when its retry or completion was scheduled

	retryFn, completeFn func() // retry and complete, bound once
}

// Params describes the device's cost model.
//
// The simple (binary) model charges Seek+Rot for every run that does not
// start exactly where the head already is. Setting StrokeSlots enables the
// positional model: the seek grows from MinSeek to Seek with the head
// travel distance, and hops of at most NearSlots cost only NearPenalty
// (track-buffer / same-cylinder accesses pay neither a full arm movement
// nor a full rotation).
type Params struct {
	Seek     sim.Duration // full-distance seek time for a non-sequential access
	Rot      sim.Duration // average rotational latency
	PerPage  sim.Duration // transfer time per page
	Capacity int64        // device size in slots (0 = unbounded, checked by swap allocator)

	MinSeek     sim.Duration // positional model: cost of the shortest real seek
	NearSlots   int64        // positional model: hops <= this cost only NearPenalty
	NearPenalty sim.Duration // positional model: near-hop cost
	StrokeSlots int64        // positional model: distance at which seeks reach Seek (0 = binary model)

	// Elevator makes the demand queue served in SCAN order (nearest
	// request in the current sweep direction) instead of FIFO. Linux 2.2's
	// request queue did this for filesystem I/O; swap traffic largely
	// bypassed it, so the reproduction's default is FIFO.
	Elevator bool

	// Retry layer (only consulted when a FaultModel is attached; a fault-free
	// disk never retries). A failed service attempt is retried after an
	// exponentially growing backoff: RetryBase, 2*RetryBase, 4*RetryBase, …
	// capped at RetryCap. After RetryMax consecutive failures the transfer is
	// forced through (modelling firmware sector remapping), so a bounded
	// number of retries can never wedge the paging path. Zero values take
	// DefaultRetryMax / DefaultRetryBase / DefaultRetryCap.
	RetryMax  int
	RetryBase sim.Duration
	RetryCap  sim.Duration
}

// Default retry-layer tuning: up to 6 attempts with 2 ms initial backoff
// capped at 200 ms — a transient-error burst stalls paging for at most
// ~0.4 s before the forced completion.
const (
	DefaultRetryMax  = 6
	DefaultRetryBase = 2 * sim.Millisecond
	DefaultRetryCap  = 200 * sim.Millisecond
)

// DefaultParams models a ~2003 commodity IDE paging disk: 6 ms average
// seek within the swap partition, 4 ms rotational latency (7200 rpm), and
// ~16 MB/s effective paging bandwidth (≈250 µs per 4 KiB page — sustained
// swap throughput sits well below the media's peak rate once controller
// and filesystem-free swap overheads are paid).
func DefaultParams() Params {
	return Params{
		Seek:    6 * sim.Millisecond,
		Rot:     4 * sim.Millisecond,
		PerPage: 250 * sim.Microsecond,
	}
}

// PositionalParams enables the distance-dependent seek model on top of the
// defaults; used by the disk-model ablation.
func PositionalParams() Params {
	p := DefaultParams()
	p.MinSeek = 1 * sim.Millisecond
	p.NearSlots = 512 // 2 MiB: same-cylinder / track-buffer territory
	p.NearPenalty = 1 * sim.Millisecond
	p.StrokeSlots = 2 << 20 // seeks saturate at ~8 GiB of travel
	return p
}

func (p Params) validate() {
	p.Seek.CheckNonNegative("disk seek")
	p.Rot.CheckNonNegative("disk rotational latency")
	if p.PerPage <= 0 {
		panic("disk: per-page transfer time must be positive")
	}
	if p.RetryMax < 0 {
		panic("disk: negative retry bound")
	}
	p.RetryBase.CheckNonNegative("disk retry backoff base")
	p.RetryCap.CheckNonNegative("disk retry backoff cap")
}

func (p *Params) fillRetryDefaults() {
	if p.RetryMax == 0 {
		p.RetryMax = DefaultRetryMax
	}
	if p.RetryBase == 0 {
		p.RetryBase = DefaultRetryBase
	}
	if p.RetryCap == 0 {
		p.RetryCap = DefaultRetryCap
	}
}

// FaultModel injects transfer faults into a Disk. Attempt is consulted once
// per service attempt, in deterministic submission order; fail makes the
// retry layer back off and try again, extra adds latency to a successful
// attempt (a spike from a marginal medium). Implementations must draw any
// randomness from their own seeded source so that a fault-free run never
// consumes entropy on behalf of the fault layer.
type FaultModel interface {
	Attempt(write bool, pages int) (fail bool, extra sim.Duration)
}

// Stats aggregates device activity.
type Stats struct {
	Reads, Writes           int64 // completed requests
	PagesRead, PagesWritten int64
	Seeks                   int64        // runs that paid seek+rot
	SequentialRuns          int64        // runs that did not
	BusyTime                sim.Duration // total service time
	DemandTime              sim.Duration // service time of demand requests
	BackgroundTime          sim.Duration // service time of background requests
	MaxQueueLen             int

	Errors        int64        // injected transfer errors (failed attempts)
	Retries       int64        // retry attempts scheduled (== Errors)
	Forced        int64        // transfers forced through after RetryMax failures
	RetryStall    sim.Duration // total backoff delay paid by retries
	InjectedDelay sim.Duration // extra latency from injected slowdown spikes
	Dropped       int64        // requests discarded by Reset (node crash)

	// Request conservation, checked by the invariant auditor: every request
	// ever submitted is either completed, dropped by a Reset, still queued,
	// or the one in service — Submitted == Completed + Dropped + QueueLen()
	// + (Busy() ? 1 : 0). Note Reads/Writes count at service START (they
	// feed service-time accounting), so they can run ahead of Completed by
	// the in-flight request.
	Submitted int64 // requests accepted by Submit
	Completed int64 // requests whose completion event fired
}

// Disk is a simulated paging device attached to a sim.Engine.
type Disk struct {
	eng *sim.Engine
	p   Params

	busy      bool
	head      Slot // where the head will be after the in-flight request
	headStale bool // disk went idle: the platter rotated away from the head position
	qDemand   []*Request
	qBg       []*Request
	stats     Stats

	// fm, when non-nil, is consulted once per service attempt; failures are
	// absorbed by the bounded retry layer (see Params.RetryMax).
	fm FaultModel
	// epoch is bumped by Reset; pending retry and completion closures from
	// an older epoch are dead (the node crashed under them).
	epoch uint64

	// obs, when non-nil, receives a DiskTransfer event (and, when
	// tracing, spans) as each request completes service.
	obs *obs.NodeObs
}

// New creates a disk with the given parameters.
func New(eng *sim.Engine, p Params) *Disk {
	p.validate()
	p.fillRetryDefaults()
	// The head starts at an invalid position so the very first access
	// always pays a seek.
	return &Disk{eng: eng, p: p, head: InvalidSlot}
}

// SetFaults attaches (or, with nil, detaches) a fault model. Without one the
// retry layer is completely inert.
func (d *Disk) SetFaults(fm FaultModel) { d.fm = fm }

// Reset models a node power-cycle: queued and in-flight requests are dropped
// — their Done callbacks and tracer/observability notifications never fire —
// and the head position is lost. Statistics are run-scoped and survive.
// Callers (the crash path in internal/cluster) are responsible for unblocking
// any process waiting on a dropped transfer.
func (d *Disk) Reset() {
	d.epoch++
	if d.busy {
		d.stats.Dropped++
	}
	d.stats.Dropped += int64(len(d.qDemand) + len(d.qBg))
	d.busy = false
	d.headStale = false
	d.head = InvalidSlot
	d.qDemand = nil
	d.qBg = nil
}

// Params returns the device's cost model.
func (d *Disk) Params() Params { return d.p }

// Stats returns a copy of the accumulated statistics.
func (d *Disk) Stats() Stats { return d.stats }

// Requests reports the request-conservation counters (see Stats) without
// copying the whole statistics block; the auditor reads them every check.
func (d *Disk) Requests() (submitted, completed, dropped int64) {
	return d.stats.Submitted, d.stats.Completed, d.stats.Dropped
}

// SetObs attaches the node's observability instruments (nil to detach).
func (d *Disk) SetObs(o *obs.NodeObs) { d.obs = o }

// QueueLen reports how many requests are waiting (not in service).
func (d *Disk) QueueLen() int { return len(d.qDemand) + len(d.qBg) }

// Busy reports whether a request is in service.
func (d *Disk) Busy() bool { return d.busy }

// Submit enqueues a request. Its run must have a positive length and a
// non-negative start.
func (d *Disk) Submit(r *Request) {
	if r.Run.N <= 0 || r.Run.Start < 0 {
		panic(fmt.Sprintf("disk: bad run %+v", r.Run))
	}
	switch r.Prio {
	case Demand:
		d.qDemand = append(d.qDemand, r)
	case Background:
		d.qBg = append(d.qBg, r)
	default:
		panic(fmt.Sprintf("disk: unknown priority %d", r.Prio))
	}
	r.d = d
	r.submitAt = d.eng.Now()
	d.stats.Submitted++
	if q := d.QueueLen(); q > d.stats.MaxQueueLen {
		d.stats.MaxQueueLen = q
	}
	d.kick()
}

// ServiceTime computes how long a request would take given the current head
// position, without submitting it. Exposed for tests and capacity planning.
func (d *Disk) ServiceTime(r *Request) sim.Duration {
	t, _ := d.serviceTime(r.Run)
	return t
}

// serviceTime prices run from the current head position, reporting whether
// it pays a seek (seeks is 0 or 1).
func (d *Disk) serviceTime(run Run) (t sim.Duration, seeks int64) {
	switch {
	case run.Start != d.head:
		t = d.seekCost(d.head, run.Start)
		seeks = 1
	case d.headStale:
		// The head is on the right track but the disk sat idle since the
		// last transfer, so the platter rotated away. Resuming an
		// otherwise-sequential stream waits almost a full revolution (the
		// target sector just passed under the head), i.e. about twice the
		// average rotational latency. This is why demand paging in small
		// groups (compute between requests) cannot stream the way one large
		// block transfer can.
		t = 2 * d.p.Rot
	}
	return t + sim.Duration(run.N)*d.p.PerPage, seeks
}

// seekCost prices moving the head from one slot to another (from != to).
func (d *Disk) seekCost(from, to Slot) sim.Duration {
	if d.p.StrokeSlots <= 0 || from == InvalidSlot {
		return d.p.Seek + d.p.Rot
	}
	dist := int64(to - from)
	if dist < 0 {
		dist = -dist
	}
	if d.p.NearSlots > 0 && dist <= d.p.NearSlots {
		return d.p.NearPenalty
	}
	frac := float64(dist) / float64(d.p.StrokeSlots)
	if frac > 1 {
		frac = 1
	}
	return d.p.MinSeek + (d.p.Seek - d.p.MinSeek).Scale(frac) + d.p.Rot
}

func (d *Disk) kick() {
	if d.busy {
		return
	}
	var r *Request
	if len(d.qDemand) > 0 {
		idx := 0
		if d.p.Elevator {
			idx = d.scanPick()
		}
		r = d.qDemand[idx]
		d.qDemand = slices.Delete(d.qDemand, idx, idx+1)
	} else if len(d.qBg) > 0 {
		r = d.qBg[0]
		d.qBg = slices.Delete(d.qBg, 0, 1)
	} else {
		return
	}
	d.busy = true
	r.attempt = 0
	d.serve(r)
}

// backoff prices the attempt'th retry (1-based): exponential from RetryBase,
// capped at RetryCap.
func (d *Disk) backoff(attempt int) sim.Duration {
	b := d.p.RetryBase
	for i := 1; i < attempt; i++ {
		b *= 2
		if b >= d.p.RetryCap {
			return d.p.RetryCap
		}
	}
	if b > d.p.RetryCap {
		b = d.p.RetryCap
	}
	return b
}

// serve runs one service attempt of r, retrying on injected errors. With no
// fault model attached it is a single synchronous call from kick, identical
// to the fault-free device.
func (d *Disk) serve(r *Request) {
	var extra sim.Duration
	if d.fm != nil && r.attempt < d.p.RetryMax {
		fail, delay := d.fm.Attempt(r.Write, r.Run.N)
		if fail {
			r.attempt++
			back := d.backoff(r.attempt)
			d.stats.Errors++
			d.stats.Retries++
			d.stats.RetryStall += back
			if d.obs != nil {
				d.obs.Bus.Emit(obs.Event{
					T:       d.eng.Now(),
					Kind:    obs.KindDiskRetry,
					Node:    d.obs.Node,
					Pages:   r.Run.N,
					Dur:     back,
					Write:   r.Write,
					Prio:    r.Prio.String(),
					Attempt: r.attempt,
				})
			}
			r.epoch = d.epoch
			if r.retryFn == nil {
				r.retryFn = r.retry
			}
			d.eng.ScheduleDetached(back, r.retryFn)
			return
		}
		extra = delay
		d.stats.InjectedDelay += delay
	} else if d.fm != nil {
		// Retry budget exhausted: force the transfer through (firmware
		// remapped the bad sectors) so paging can never wedge on one block.
		d.stats.Forced++
	}

	svc, seeks := d.serviceTime(r.Run)
	svc += extra
	r.start, r.svc = d.eng.Now(), svc
	d.head = r.Run.End()
	d.headStale = false
	d.stats.Seeks += seeks
	d.stats.SequentialRuns += 1 - seeks
	d.stats.BusyTime += svc
	if r.Prio == Demand {
		d.stats.DemandTime += svc
	} else {
		d.stats.BackgroundTime += svc
	}
	if r.Write {
		d.stats.Writes++
		d.stats.PagesWritten += int64(r.Run.N)
	} else {
		d.stats.Reads++
		d.stats.PagesRead += int64(r.Run.N)
	}
	r.epoch = d.epoch
	if r.completeFn == nil {
		r.completeFn = r.complete
	}
	d.eng.ScheduleDetached(svc, r.completeFn)
}

// retry is a backed-off request's next service attempt.
func (r *Request) retry() {
	if r.epoch != r.d.epoch {
		return // node crashed while backing off
	}
	r.d.serve(r)
}

// complete ends r's service: it frees the disk, reports the transfer, calls
// Done and starts the next queued request. Nothing reads r after Done.
func (r *Request) complete() {
	d := r.d
	if r.epoch != d.epoch {
		return // node crashed mid-transfer: the request is gone
	}
	d.busy = false
	d.stats.Completed++
	if d.QueueLen() == 0 {
		d.headStale = true
	}
	if d.obs != nil {
		d.observe(r)
	}
	if done := r.Done; done != nil {
		done(r.svc)
	}
	d.kick()
}

// observe reports a completed transfer: its event and, when tracing, its
// queue-wait and transfer spans.
func (d *Disk) observe(r *Request) {
	pages := r.Run.N
	d.obs.Bus.Emit(obs.Event{
		T:     r.start,
		Kind:  obs.KindDiskTransfer,
		Node:  d.obs.Node,
		Pages: pages,
		Dur:   r.svc,
		Write: r.Write,
		Prio:  r.Prio.String(),
	})
	if t := d.obs.Tracer; t != nil {
		// The queue span covers submission to service start (retry backoff
		// included); the transfer span hangs off it.
		q := t.Emit(obs.SpanDiskQueue, r.Parent, d.obs.Node, 0, r.submitAt, r.start, pages)
		t.Emit(obs.SpanDiskTransfer, q, d.obs.Node, 0, r.start, r.start.Add(r.svc), pages)
	}
}

// scanPick returns the index of the queued demand request whose run is
// nearest the head position, preferring requests at or beyond the head
// (the upward sweep) before falling back to the nearest below it.
func (d *Disk) scanPick() int {
	head := d.head
	if head == InvalidSlot {
		return 0
	}
	bestUp, bestUpDist := -1, int64(1)<<62
	bestDown, bestDownDist := -1, int64(1)<<62
	for i, r := range d.qDemand {
		start := r.Run.Start
		if start >= head {
			if dist := int64(start - head); dist < bestUpDist {
				bestUp, bestUpDist = i, dist
			}
		} else if dist := int64(head - start); dist < bestDownDist {
			bestDown, bestDownDist = i, dist
		}
	}
	if bestUp >= 0 {
		return bestUp
	}
	return bestDown
}
