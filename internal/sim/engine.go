package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Event is a scheduled callback. Events are created by Engine.Schedule and
// Engine.At; holding the returned pointer allows cancellation.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	eng      *Engine // owner, for live-count upkeep on Cancel; nil once fired
	fired    bool
	cancel   bool
	detached bool // recycled after firing; no caller may hold a pointer
}

// At reports the time the event is (or was) scheduled to fire.
func (e *Event) At() Time { return e.at }

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired or been cancelled is a no-op. Cancel reports whether the
// event was actually descheduled by this call.
//
// A cancelled event is removed from the queue lazily: it stops counting
// toward Engine.Pending immediately, but its slot is reclaimed either when
// the queue reaches it or by a compaction pass once cancelled events
// outnumber live ones.
func (e *Event) Cancel() bool {
	if e == nil || e.fired || e.cancel {
		return false
	}
	e.cancel = true
	if eng := e.eng; eng != nil {
		eng.nLive--
		eng.nCancelled++
		if eng.peeked == e {
			eng.peeked = nil
		}
		if eng.nCancelled > compactThreshold && eng.nCancelled > eng.nLive {
			eng.compact()
		}
	}
	return true
}

// Pending reports whether the event is still scheduled to fire.
func (e *Event) Pending() bool { return e != nil && !e.fired && !e.cancel }

// The pending-event queue is a calendar (bucket) queue specialised to the
// simulator's schedule pattern: almost every event lands within a few
// milliseconds of the clock, times never run backwards, and ties are broken
// by an ever-increasing sequence number. The wheel is numBuckets buckets of
// 2^bucketShift microseconds each, covering [base, base+span); each bucket
// is kept sorted by (at, seq) with a consumed-head index so the front pops
// in O(1). Events beyond the span go to a small sorted spill tier; when the
// wheel drains, the base jumps forward to the spill head and the in-span
// spill prefix migrates into buckets (a "ladder" rotation). A bitmap of
// non-empty buckets makes finding the next event a handful of word scans.
const (
	bucketShift      = 7               // bucket width: 128 µs
	numBuckets       = 512             // wheel span: 65.536 ms
	bitmapWords      = numBuckets / 64 //
	compactThreshold = 64              // cancelled events tolerated before compaction
)

// Engine is the simulation event loop. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now  Time
	seq  uint64
	rng  *rand.Rand
	nRun uint64 // logical events executed (collapsed runs included)

	// stepExtra accumulates CountCollapsed credits within the firing event,
	// so the step hook can report the step's logical weight.
	stepExtra int
	onStep    func(now Time, fired int)

	free []*Event // recycled detached events

	// Calendar queue state (see the comment on bucketShift).
	baseBucket int64 // absolute bucket index (at >> bucketShift) of buckets[0]
	buckets    [numBuckets][]*Event
	heads      [numBuckets]int32
	bitmap     [bitmapWords]uint64
	spill      []*Event // sorted by (at, seq), consumed from spillHead
	spillHead  int

	nQueued    int // events physically queued, including cancelled ones
	nLive      int // events that will actually fire (Pending's contract)
	nCancelled int // cancelled events not yet reclaimed

	// peeked caches the queue head found by peek so the Step that follows a
	// NextEventTime/RunUntil peek pops in O(1) instead of rescanning. Any
	// push, cancel or compaction invalidates it.
	peeked    *Event
	peekedIdx int
}

// NewEngine returns an engine whose clock starts at 0 and whose RNG is
// seeded with seed. All model randomness must come from Engine.Rand so runs
// are reproducible.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Executed reports how many logical events have fired so far. A fast-
// forwarded run that collapses k would-be events into one (see
// CountCollapsed) still advances this counter by k, so event-count-based
// cadences (audit sweeps, throughput metrics) are independent of collapsing.
func (e *Engine) Executed() uint64 { return e.nRun }

// SetStepHook installs fn to run after every fired event, with the clock
// already advanced to the event's timestamp. fired is the step's logical
// weight: 1 for an ordinary event, 1+k when the callback collapsed k
// additional events into this step via CountCollapsed. It is the engine's
// observability hook point (the cluster uses it to track simulated time and
// event throughput as live metrics); pass nil to remove. The hook must not
// schedule or cancel events.
func (e *Engine) SetStepHook(fn func(now Time, fired int)) { e.onStep = fn }

// CountCollapsed credits n additional logical events to the step currently
// firing: the callback analytically advanced work that would otherwise have
// taken n more events (touch-run fast-forwarding). Executed and the step
// hook's weight both reflect the credit. Call only from within an event
// callback.
func (e *Engine) CountCollapsed(n int) {
	if n <= 0 {
		return
	}
	e.nRun += uint64(n)
	e.stepExtra += n
}

// Pending reports the number of events currently scheduled to fire.
// Cancelled events never count, regardless of whether their queue slots
// have been reclaimed yet.
func (e *Engine) Pending() int { return e.nLive }

// Schedule queues fn to run after delay. A negative delay panics: the
// simulator cannot travel backwards.
func (e *Engine) Schedule(delay Duration, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %v at %v", delay, e.now))
	}
	return e.At(e.now.Add(delay), fn)
}

// At queues fn to run at the absolute time t, which must not be in the past.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%v) is in the past (now %v)", t, e.now))
	}
	if fn == nil {
		panic("sim: At with nil callback")
	}
	e.seq++
	ev := &Event{at: t, seq: e.seq, fn: fn, eng: e}
	e.enqueue(ev)
	return ev
}

// ScheduleDetached queues fn to run after delay, like Schedule, but returns
// no handle: the event cannot be cancelled, and the engine recycles the
// event object after it fires. This is the allocation-free path for the
// simulator's hot loops (page-touch steps, disk transfers, fault service),
// which schedule millions of events and never cancel them.
func (e *Engine) ScheduleDetached(delay Duration, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: ScheduleDetached with negative delay %v at %v", delay, e.now))
	}
	e.AtDetached(e.now.Add(delay), fn)
}

// AtDetached queues fn to run at the absolute time t without returning a
// cancellable handle; see ScheduleDetached.
func (e *Engine) AtDetached(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AtDetached(%v) is in the past (now %v)", t, e.now))
	}
	if fn == nil {
		panic("sim: AtDetached with nil callback")
	}
	e.seq++
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = Event{at: t, seq: e.seq, fn: fn, detached: true}
	} else {
		ev = &Event{at: t, seq: e.seq, fn: fn, detached: true}
	}
	e.enqueue(ev)
}

// less orders events by (at, seq): time first, FIFO within a timestamp.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// enqueue places ev into the wheel or the spill tier.
func (e *Engine) enqueue(ev *Event) {
	e.peeked = nil
	e.nLive++
	if e.nQueued == 0 {
		// Empty queue: re-anchor the wheel at the event so a long idle gap
		// does not push a near-future event into the spill tier.
		e.baseBucket = int64(ev.at >> bucketShift)
	}
	e.nQueued++
	b := int64(ev.at>>bucketShift) - e.baseBucket
	if b >= numBuckets {
		e.spillInsert(ev)
		return
	}
	if b < 0 {
		// Only possible between a rotation (which may jump the base past the
		// clock) and the next fire: the event precedes every wheel entry, so
		// the minimum bucket keeps it at the front; the per-bucket sort
		// handles ordering against other bucket-0 entries.
		b = 0
	}
	e.bucketInsert(int(b), ev)
}

func (e *Engine) bucketInsert(b int, ev *Event) {
	s := e.buckets[b]
	h := int(e.heads[b])
	if h == len(s) && h > 0 {
		s = s[:0]
		h = 0
		e.heads[b] = 0
	}
	s = append(s, ev)
	// Insertion sort from the tail: schedules are overwhelmingly in
	// (at, seq) order already, so this is one comparison in the common case.
	i := len(s) - 1
	for i > h && less(ev, s[i-1]) {
		s[i] = s[i-1]
		i--
	}
	s[i] = ev
	e.buckets[b] = s
	e.bitmap[b>>6] |= 1 << (uint(b) & 63)
}

func (e *Engine) spillInsert(ev *Event) {
	// Binary search within the live window for the insertion point.
	lo, hi := e.spillHead, len(e.spill)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(ev, e.spill[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == e.spillHead && e.spillHead > 0 {
		// New minimum with consumed space in front: reuse a dead slot.
		e.spillHead--
		e.spill[e.spillHead] = ev
		return
	}
	e.spill = append(e.spill, nil)
	copy(e.spill[lo+1:], e.spill[lo:])
	e.spill[lo] = ev
}

// dropCancelled accounts for a cancelled event leaving the queue.
func (e *Engine) dropCancelled(ev *Event) {
	e.nQueued--
	e.nCancelled--
	ev.eng = nil
}

// peek returns the next live event without removing it, lazily discarding
// cancelled events it passes and rotating the spill tier into the wheel when
// the wheel drains. The result is cached so the following pop is O(1).
func (e *Engine) peek() *Event {
	if e.peeked != nil {
		return e.peeked
	}
	for {
		for w := 0; w < bitmapWords; w++ {
			for e.bitmap[w] != 0 {
				b := w<<6 + bits.TrailingZeros64(e.bitmap[w])
				s := e.buckets[b]
				h := int(e.heads[b])
				for h < len(s) && s[h].cancel {
					e.dropCancelled(s[h])
					s[h] = nil
					h++
				}
				if h < len(s) {
					e.heads[b] = int32(h)
					e.peeked = s[h]
					e.peekedIdx = b
					return s[h]
				}
				e.buckets[b] = s[:0]
				e.heads[b] = 0
				e.bitmap[w] &^= 1 << (uint(b) & 63)
			}
		}
		// Wheel empty; discard dead spill entries and rotate in the rest.
		for e.spillHead < len(e.spill) && e.spill[e.spillHead].cancel {
			e.dropCancelled(e.spill[e.spillHead])
			e.spill[e.spillHead] = nil
			e.spillHead++
		}
		if e.spillHead == len(e.spill) {
			e.spill = e.spill[:0]
			e.spillHead = 0
			return nil
		}
		e.rotate()
	}
}

// rotate jumps the wheel's base to the spill head and migrates the in-span
// spill prefix into buckets. Only called with an empty wheel.
func (e *Engine) rotate() {
	e.baseBucket = int64(e.spill[e.spillHead].at >> bucketShift)
	for e.spillHead < len(e.spill) {
		ev := e.spill[e.spillHead]
		if ev.cancel {
			e.dropCancelled(ev)
			e.spill[e.spillHead] = nil
			e.spillHead++
			continue
		}
		b := int64(ev.at>>bucketShift) - e.baseBucket
		if b >= numBuckets {
			break
		}
		e.spill[e.spillHead] = nil
		e.spillHead++
		// The spill is sorted, so migration hits each bucket in order and
		// bucketInsert's tail path is a plain append.
		e.bucketInsert(int(b), ev)
	}
	if e.spillHead == len(e.spill) {
		e.spill = e.spill[:0]
		e.spillHead = 0
	}
}

// pop removes and returns the next live event, or nil.
func (e *Engine) pop() *Event {
	ev := e.peek()
	if ev == nil {
		return nil
	}
	b := e.peekedIdx
	h := int(e.heads[b]) // peek left ev at the bucket head
	e.buckets[b][h] = nil
	h++
	if h == len(e.buckets[b]) {
		e.buckets[b] = e.buckets[b][:0]
		e.heads[b] = 0
		e.bitmap[b>>6] &^= 1 << (uint(b) & 63)
	} else {
		e.heads[b] = int32(h)
	}
	e.peeked = nil
	e.nQueued--
	e.nLive--
	ev.eng = nil
	return ev
}

// compact removes cancelled events eagerly; triggered by Cancel once they
// outnumber the live ones, so a cancel-heavy workload cannot accumulate an
// unbounded graveyard between pops.
func (e *Engine) compact() {
	e.peeked = nil
	for b := range e.buckets {
		s := e.buckets[b]
		h := int(e.heads[b])
		if h == len(s) {
			continue
		}
		out := s[:0]
		for _, ev := range s[h:] {
			if ev.cancel {
				e.dropCancelled(ev)
				continue
			}
			out = append(out, ev)
		}
		for i := len(out); i < len(s); i++ {
			s[i] = nil
		}
		e.buckets[b] = out
		e.heads[b] = 0
		if len(out) == 0 {
			e.bitmap[b>>6] &^= 1 << (uint(b) & 63)
		}
	}
	out := e.spill[:0]
	for _, ev := range e.spill[e.spillHead:] {
		if ev.cancel {
			e.dropCancelled(ev)
			continue
		}
		out = append(out, ev)
	}
	for i := len(out); i < len(e.spill); i++ {
		e.spill[i] = nil
	}
	e.spill = out
	e.spillHead = 0
}

// Step fires the next event, advancing the clock to its timestamp. It
// reports false when the queue is empty (cancelled events are skipped and
// do not count as a step).
func (e *Engine) Step() bool {
	ev := e.pop()
	if ev == nil {
		return false
	}
	e.now = ev.at
	ev.fired = true
	e.nRun++
	e.stepExtra = 0
	fn := ev.fn
	if ev.detached {
		// Recycle before running fn so a detached event scheduled from
		// inside the callback can reuse this object; fn is held locally and
		// ev is out of the queue already.
		ev.fn = nil
		e.free = append(e.free, ev)
	}
	fn()
	if e.onStep != nil {
		e.onStep(e.now, 1+e.stepExtra)
	}
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled beyond t remain queued. The peeked head is
// cached, so the Step that consumes it does not rescan the queue.
func (e *Engine) RunUntil(t Time) {
	for {
		ev := e.peek()
		if ev == nil || ev.at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor executes events within the next d of simulated time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// NextEventTime reports the timestamp of the next pending event and whether
// one exists.
func (e *Engine) NextEventTime() (Time, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}
