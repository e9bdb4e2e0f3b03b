package obs

import (
	"fmt"

	"repro/internal/sim"
)

// Category classifies where one simulated microsecond of a rank's wall
// time went. Simulated time only passes while a rank is parked in exactly
// one engine wait (compute delay, fault service, barrier) or sits stopped
// between quanta, so the categories partition the rank's life exactly —
// the property the ledger-conservation audit law checks.
type Category uint8

const (
	// CatCompute is time inside a compute delay (touch runs, per-iteration
	// compute segments).
	CatCompute Category = iota
	// CatBarrier is time blocked in the job's barrier.
	CatBarrier
	// CatFault is time stalled on a page fault whose page was not evicted
	// by a job switch (capacity reclaim, demand-zero fills, crash refaults).
	CatFault
	// CatSwitch is time stalled on a fault caused by switch-time paging:
	// the page was evicted while its owner was descheduled, or is still in
	// flight from an adaptive page-in replay.
	CatSwitch
	// CatQueue is time spent descheduled, waiting for the gang rotation to
	// hand the cluster back.
	CatQueue
	// CatDown is time spent descheduled while the rank's node was crashed.
	CatDown

	// NumCategories is the taxonomy size.
	NumCategories
)

var categoryNames = [NumCategories]string{
	"compute", "barrier", "fault", "switch", "queue", "down",
}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// Attribution is a rank's (or job's) wall time decomposed by category.
// The invariant is Total() == the owning rank's finish time (makespan for
// jobs submitted at t=0) — enforced as the ledger-conservation audit law.
type Attribution struct {
	Compute sim.Duration `json:"computeUs"`
	Barrier sim.Duration `json:"barrierUs"`
	Fault   sim.Duration `json:"faultUs"`
	Switch  sim.Duration `json:"switchUs"`
	Queue   sim.Duration `json:"queueUs"`
	Down    sim.Duration `json:"downUs"`
}

// Total sums the buckets.
func (a Attribution) Total() sim.Duration {
	return a.Compute + a.Barrier + a.Fault + a.Switch + a.Queue + a.Down
}

// Of returns the named bucket.
func (a Attribution) Of(c Category) sim.Duration {
	switch c {
	case CatCompute:
		return a.Compute
	case CatBarrier:
		return a.Barrier
	case CatFault:
		return a.Fault
	case CatSwitch:
		return a.Switch
	case CatQueue:
		return a.Queue
	case CatDown:
		return a.Down
	}
	return 0
}

// RankLedger accrues one rank's wall time into categories. The rank is
// always in exactly one state (the current category); Transition flushes
// the time since the last transition into that state's bucket and enters
// the next. A nil *RankLedger is valid and does nothing — the zero-cost
// path when attribution is off.
type RankLedger struct {
	buckets [NumCategories]sim.Duration
	born    sim.Time
	last    sim.Time
	cur     Category
	done    bool
	down    bool // the rank's node is crashed; idle time is CatDown

	// deferred is time of the open segment already booked to other
	// categories (Defer); the next flush moves it out of cur's share.
	deferred    [NumCategories]sim.Duration
	hasDeferred bool
}

// NewRankLedger returns a ledger for a rank created at now. Until its
// first quantum the rank waits in the rotation, so the opening category
// is CatQueue.
func NewRankLedger(now sim.Time) *RankLedger {
	return &RankLedger{born: now, last: now, cur: CatQueue}
}

// Transition flushes [last, now) into the current category and enters
// cat. Safe on a nil ledger; a no-op after Finish.
func (l *RankLedger) Transition(now sim.Time, cat Category) {
	if l == nil || l.done {
		return
	}
	l.flush(now)
	l.cur = cat
}

// flush closes the open segment at now: the deferred shares go to their
// categories and the rest of [last, now) to the current one.
func (l *RankLedger) flush(now sim.Time) {
	seg := now.Sub(l.last)
	if l.hasDeferred {
		for c, d := range l.deferred {
			l.buckets[c] += d
			seg -= d
		}
		l.deferred = [NumCategories]sim.Duration{}
		l.hasDeferred = false
	}
	l.buckets[l.cur] += seg
	l.last = now
}

// Defer books d of the open segment to cat instead of the current
// category, applied at the next Transition or Finish. It is for time the
// caller charges ahead of the clock: a fast-forwarded touch window that
// folds a fault stall into a compute segment (DESIGN §10b) knows the
// stall's length and category before the segment closes. The segment
// must end at least the deferred total after its start. Safe on a nil
// ledger; a no-op after Finish.
func (l *RankLedger) Defer(cat Category, d sim.Duration) {
	if l == nil || l.done {
		return
	}
	l.deferred[cat] += d
	l.hasDeferred = true
}

// TransitionIdle enters the descheduled state: CatDown while the rank's
// node is crashed, CatQueue otherwise.
func (l *RankLedger) TransitionIdle(now sim.Time) {
	if l == nil {
		return
	}
	if l.down {
		l.Transition(now, CatDown)
	} else {
		l.Transition(now, CatQueue)
	}
}

// Retag switches the current category without flushing time — for a
// refinement made at the same instant as the preceding Transition (the VM
// reclassifying a fault stall as switch overhead once it has looked at
// the page). Safe on a nil ledger.
func (l *RankLedger) Retag(cat Category) {
	if l == nil || l.done {
		return
	}
	l.cur = cat
}

// Current reports the category accruing now.
func (l *RankLedger) Current() Category {
	if l == nil {
		return CatQueue
	}
	return l.cur
}

// SetDown flags whether the rank's node is crashed. While flagged, idle
// transitions land in CatDown; if the rank is already idle the current
// segment is split at now so downtime is bounded exactly.
func (l *RankLedger) SetDown(now sim.Time, down bool) {
	if l == nil || l.down == down {
		return
	}
	l.down = down
	if l.done {
		return
	}
	if down && l.cur == CatQueue {
		l.Transition(now, CatDown)
	} else if !down && l.cur == CatDown {
		l.Transition(now, CatQueue)
	}
}

// Finish flushes the final segment and freezes the ledger at now (the
// rank's finish time). Safe on a nil ledger; idempotent.
func (l *RankLedger) Finish(now sim.Time) {
	if l == nil || l.done {
		return
	}
	l.flush(now)
	l.done = true
}

// Done reports whether the ledger is frozen.
func (l *RankLedger) Done() bool { return l != nil && l.done }

// FrozenAt returns the finish time of a frozen ledger (zero otherwise).
func (l *RankLedger) FrozenAt() sim.Time {
	if l == nil || !l.done {
		return 0
	}
	return l.last
}

// Snapshot returns the attribution as of now, flushing the in-progress
// segment into the current category without ending it. Deferred time
// stays out until its segment closes: it may lie after now. For a frozen
// ledger the snapshot is final and now is ignored.
func (l *RankLedger) Snapshot(now sim.Time) Attribution {
	if l == nil {
		return Attribution{}
	}
	b := l.buckets
	if !l.done {
		b[l.cur] += now.Sub(l.last)
	}
	return Attribution{
		Compute: b[CatCompute], Barrier: b[CatBarrier], Fault: b[CatFault],
		Switch: b[CatSwitch], Queue: b[CatQueue], Down: b[CatDown],
	}
}

// Check verifies the conservation law at now: the buckets plus the
// in-progress segment must sum exactly to the wall time since the rank's
// creation, and the last transition must not postdate the clock. It
// returns a non-nil error describing the first violated condition.
func (l *RankLedger) Check(now sim.Time) error {
	if l == nil {
		return nil
	}
	if l.last > now {
		return fmt.Errorf("ledger last transition at %v is after now %v", l.last, now)
	}
	var sum sim.Duration
	for _, b := range l.buckets {
		if b < 0 {
			return fmt.Errorf("negative bucket in %v", l.Snapshot(now))
		}
		sum += b
	}
	end := now
	if l.done {
		end = l.last
	} else {
		sum += now.Sub(l.last)
	}
	if want := end.Sub(l.born); sum != want {
		return fmt.Errorf("buckets sum to %v, wall time is %v (%v)", sum, want, l.Snapshot(now))
	}
	return nil
}
