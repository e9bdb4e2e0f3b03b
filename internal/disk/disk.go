package disk

import (
	"fmt"
	"sort"

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

// Request is one disk transaction over a set of slot runs.
type Request struct {
	Runs  []Run
	Write bool
	Prio  Priority
	// Done is invoked at completion with the time the request spent in
	// service (queueing excluded). May be nil.
	Done func(service sim.Duration)
	// Parent, when tracing, is the span that caused this request (a fault,
	// prefault replay or page-out drain); the queue-wait and transfer spans
	// emitted at completion hang off it.
	Parent obs.SpanID

	// submitAt is stamped by Submit so the queue-wait span can be emitted
	// retrospectively at completion.
	submitAt sim.Time
}

// Pages reports the total number of pages the request transfers.
func (r *Request) Pages() int {
	n := 0
	for _, run := range r.Runs {
		n += run.N
	}
	return n
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

	// obs, when non-nil, receives a DiskTransfer event and busy-time /
	// seek counter updates as each request completes service.
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

// Submit enqueues a request. Runs must be non-empty with positive lengths.
func (d *Disk) Submit(r *Request) {
	if len(r.Runs) == 0 {
		panic("disk: request with no runs")
	}
	for _, run := range r.Runs {
		if run.N <= 0 || run.Start < 0 {
			panic(fmt.Sprintf("disk: bad run %+v", run))
		}
	}
	switch r.Prio {
	case Demand:
		d.qDemand = append(d.qDemand, r)
	case Background:
		d.qBg = append(d.qBg, r)
	default:
		panic(fmt.Sprintf("disk: unknown priority %d", r.Prio))
	}
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
	t, _, _, _ := d.serviceTimeFrom(d.head, r)
	return t
}

func (d *Disk) serviceTimeFrom(head Slot, r *Request) (t sim.Duration, newHead Slot, seeks, seq int64) {
	newHead = head
	stale := d.headStale
	for _, run := range r.Runs {
		switch {
		case run.Start != newHead:
			t += d.seekCost(newHead, run.Start)
			seeks++
		case stale:
			// The head is on the right track but the disk sat idle since
			// the last transfer, so the platter rotated away. Resuming an
			// otherwise-sequential stream waits almost a full revolution
			// (the target sector just passed under the head), i.e. about
			// twice the average rotational latency. This is why demand
			// paging in small groups (compute between requests) cannot
			// stream the way one large block transfer can.
			t += 2 * d.p.Rot
			seq++
		default:
			seq++
		}
		stale = false
		t += sim.Duration(run.N) * d.p.PerPage
		newHead = run.End()
	}
	return t, newHead, seeks, seq
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
		d.qDemand = append(d.qDemand[:idx], d.qDemand[idx+1:]...)
	} else if len(d.qBg) > 0 {
		r = d.qBg[0]
		d.qBg = d.qBg[1:]
	} else {
		return
	}
	d.busy = true
	d.serve(r, 0)
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
func (d *Disk) serve(r *Request, attempt int) {
	var extra sim.Duration
	if d.fm != nil && attempt < d.p.RetryMax {
		fail, delay := d.fm.Attempt(r.Write, r.Pages())
		if fail {
			attempt++
			back := d.backoff(attempt)
			d.stats.Errors++
			d.stats.Retries++
			d.stats.RetryStall += back
			if d.obs != nil {
				d.obs.DiskRetries.Inc()
				d.obs.Bus.Emit(obs.Event{
					T:       d.eng.Now(),
					Kind:    obs.KindDiskRetry,
					Node:    d.obs.Node,
					Pages:   r.Pages(),
					Dur:     back,
					Write:   r.Write,
					Prio:    r.Prio.String(),
					Attempt: attempt,
				})
			}
			epoch := d.epoch
			d.eng.ScheduleDetached(back, func() {
				if d.epoch != epoch {
					return // node crashed while backing off
				}
				d.serve(r, attempt)
			})
			return
		}
		extra = delay
		d.stats.InjectedDelay += delay
	} else if d.fm != nil {
		// Retry budget exhausted: force the transfer through (firmware
		// remapped the bad sectors) so paging can never wedge on one block.
		d.stats.Forced++
	}

	start := d.eng.Now()
	svc, newHead, seeks, seq := d.serviceTimeFrom(d.head, r)
	svc += extra
	d.head = newHead
	d.headStale = false
	d.stats.Seeks += seeks
	d.stats.SequentialRuns += seq
	d.stats.BusyTime += svc
	if r.Prio == Demand {
		d.stats.DemandTime += svc
	} else {
		d.stats.BackgroundTime += svc
	}
	pages := r.Pages()
	if r.Write {
		d.stats.Writes++
		d.stats.PagesWritten += int64(pages)
	} else {
		d.stats.Reads++
		d.stats.PagesRead += int64(pages)
	}
	epoch := d.epoch
	d.eng.ScheduleDetached(svc, func() {
		if d.epoch != epoch {
			return // node crashed mid-transfer: the request is gone
		}
		d.busy = false
		d.stats.Completed++
		if d.QueueLen() == 0 {
			d.headStale = true
		}
		if d.obs != nil {
			d.obs.DiskBusySeconds.Add(svc.Seconds())
			d.obs.DiskSeeks.Add(float64(seeks))
			d.obs.Bus.Emit(obs.Event{
				T:     start,
				Kind:  obs.KindDiskTransfer,
				Node:  d.obs.Node,
				Pages: pages,
				Dur:   svc,
				Write: r.Write,
				Prio:  r.Prio.String(),
			})
			if t := d.obs.Tracer; t != nil {
				// The queue span covers submission to service start (retry
				// backoff included); the transfer span hangs off it.
				q := t.Emit(obs.SpanDiskQueue, r.Parent, d.obs.Node, 0, r.submitAt, start, pages)
				t.Emit(obs.SpanDiskTransfer, q, d.obs.Node, 0, start, start.Add(svc), pages)
			}
		}
		if r.Done != nil {
			r.Done(svc)
		}
		d.kick()
	})
}

// scanPick returns the index of the queued demand request whose first run
// is nearest the head position, preferring requests at or beyond the head
// (the upward sweep) before falling back to the nearest below it.
func (d *Disk) scanPick() int {
	head := d.head
	if head == InvalidSlot {
		return 0
	}
	bestUp, bestUpDist := -1, int64(1)<<62
	bestDown, bestDownDist := -1, int64(1)<<62
	for i, r := range d.qDemand {
		start := r.Runs[0].Start
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

// Coalesce turns an arbitrary slot list into a minimal sorted set of
// contiguous runs. Duplicate slots are collapsed. The input is left
// untouched; hot paths that own their slot buffer should use
// AppendCoalesced to avoid the defensive copy.
func Coalesce(slots []Slot) []Run {
	if len(slots) == 0 {
		return nil
	}
	s := append([]Slot(nil), slots...)
	return AppendCoalesced(nil, s)
}

// AppendCoalesced coalesces slots into contiguous runs appended to dst,
// which is returned like append. Unlike Coalesce it sorts slots in place,
// so the caller must own the buffer; reusing dst across calls makes the
// page-out and read-in hot paths allocation-free.
func AppendCoalesced(dst []Run, slots []Slot) []Run {
	if len(slots) == 0 {
		return dst
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	cur := Run{Start: slots[0], N: 1}
	for _, sl := range slots[1:] {
		switch {
		case sl == cur.End()-1: // duplicate
		case sl == cur.End():
			cur.N++
		default:
			dst = append(dst, cur)
			cur = Run{Start: sl, N: 1}
		}
	}
	return append(dst, cur)
}

// SplitRuns caps each run at maxPages, splitting longer extents. Used to
// bound single-transaction sizes.
func SplitRuns(runs []Run, maxPages int) []Run {
	return AppendSplitRuns(nil, runs, maxPages)
}

// AppendSplitRuns appends runs to dst with each extent capped at maxPages,
// returning dst like append. runs and dst must not alias.
func AppendSplitRuns(dst []Run, runs []Run, maxPages int) []Run {
	if maxPages <= 0 {
		panic("disk: SplitRuns with non-positive cap")
	}
	for _, r := range runs {
		for r.N > maxPages {
			dst = append(dst, Run{Start: r.Start, N: maxPages})
			r.Start += Slot(maxPages)
			r.N -= maxPages
		}
		dst = append(dst, r)
	}
	return dst
}
