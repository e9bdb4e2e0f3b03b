package sim

import (
	"container/heap"
	"testing"
)

// The fuzz oracle is the priority queue the calendar queue replaced: a
// container/heap ordered by (at, seq). Driving both with the same script and
// demanding identical firing order, clocks and pending counts pins the
// bucket/spill/rotation machinery to the old total order.

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// FuzzEngineOrder interprets the input as a script of (op, arg, arg) triples
// — schedule, schedule-detached, cancel, run-until, and re-arm of a fired
// handle (a schedule op with bit 6 set) — executed against both the Engine
// and the reference heap, and asserts identical firing order, firing
// clocks, pending counts and executed totals. A re-armed handle fires
// again as a new id, and cancelling the handle cancels that firing.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 0, 10, 3, 0, 255})
	f.Add([]byte{0, 1, 0, 1, 1, 0, 2, 0, 0, 3, 255, 255})
	f.Add([]byte{128, 255, 255, 0, 0, 1, 129, 200, 0, 3, 255, 255, 2, 1, 0})
	f.Add([]byte{0, 0, 5, 2, 0, 0, 2, 0, 0, 1, 0, 7, 3, 0, 20})
	// Re-arm: a fired handle re-armed once and twice, among ties, then
	// cancelled while re-armed.
	f.Add([]byte{0, 0, 5, 0, 0, 5, 3, 0, 5, 64, 0, 5, 1, 0, 5, 3, 0, 10, 64, 1, 0, 64, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 0, 1, 3, 0, 1, 64, 0, 3, 2, 0, 0, 64, 0, 3, 3, 0, 10, 64, 0, 3, 3, 0, 10})
	// Re-arm deep into the spill tier, crossing rotations.
	f.Add([]byte{0, 0, 2, 3, 0, 2, 192, 255, 255, 0, 0, 9, 3, 255, 255, 192, 1, 0, 3, 255, 255})
	f.Fuzz(func(t *testing.T, script []byte) {
		e := NewEngine(1)
		var q refQueue
		type rec struct {
			id int
			at Time
		}
		var got, want []rec
		alive := make(map[int]bool)     // scheduled, not yet fired or cancelled
		cancelled := make(map[int]bool) // lazily skipped by the reference pop
		// A handle is one cancellable event and the id of its latest
		// scheduling, which a re-arm renews.
		type handle struct {
			ev *Event
			id int
		}
		var handles []*handle
		seq := uint64(0)
		nextID := 0
		refNow := Time(0)
		record := func(id int) func() {
			return func() { got = append(got, rec{id, e.Now()}) }
		}
		drainRef := func(limit Time, all bool) {
			for q.Len() > 0 {
				top := q[0]
				if cancelled[top.id] {
					heap.Pop(&q)
					continue
				}
				if !all && top.at > limit {
					break
				}
				heap.Pop(&q)
				refNow = top.at
				want = append(want, rec{top.id, top.at})
				delete(alive, top.id)
			}
			if !all && limit > refNow {
				refNow = limit
			}
		}
		for pc := 0; pc+2 < len(script); pc += 3 {
			op, a, b := script[pc], script[pc+1], script[pc+2]
			delay := Duration(uint16(a)<<8 | uint16(b)) // 0–65535 µs: one wheel span
			if op >= 128 {
				delay *= 64 // up to ~4.2 s: deep into the spill tier
			}
			switch op % 4 {
			case 0:
				if op&64 != 0 { // re-arm a handle that has fired
					if len(handles) == 0 {
						continue
					}
					h := handles[int(a)%len(handles)]
					if alive[h.id] || cancelled[h.id] {
						continue
					}
					seq++
					h.id = nextID
					nextID++
					e.Rearm(h.ev, delay)
					alive[h.id] = true
					heap.Push(&q, &refEvent{at: refNow.Add(delay), seq: seq, id: h.id})
					continue
				}
				// cancellable schedule
				seq++
				h := &handle{id: nextID}
				nextID++
				h.ev = e.Schedule(delay, func() { got = append(got, rec{h.id, e.Now()}) })
				handles = append(handles, h)
				alive[h.id] = true
				heap.Push(&q, &refEvent{at: refNow.Add(delay), seq: seq, id: h.id})
			case 1: // detached schedule (free-list path, not cancellable)
				seq++
				id := nextID
				nextID++
				e.ScheduleDetached(delay, record(id))
				alive[id] = true
				heap.Push(&q, &refEvent{at: refNow.Add(delay), seq: seq, id: id})
			case 2: // cancel an arbitrary earlier handle
				if len(handles) == 0 {
					continue
				}
				h := handles[int(a)%len(handles)]
				wantOK := alive[h.id]
				if gotOK := h.ev.Cancel(); gotOK != wantOK {
					t.Fatalf("Cancel(%d) = %v, reference says %v", h.id, gotOK, wantOK)
				}
				if wantOK {
					cancelled[h.id] = true
					delete(alive, h.id)
				}
			case 3: // run until refNow + delay
				target := refNow.Add(delay)
				e.RunUntil(target)
				drainRef(target, false)
				if e.Now() != refNow {
					t.Fatalf("clock after RunUntil(%v) = %v, reference %v", target, e.Now(), refNow)
				}
				if e.Pending() != len(alive) {
					t.Fatalf("Pending = %d, reference %d", e.Pending(), len(alive))
				}
			}
		}
		e.Run()
		drainRef(0, true)
		if e.Now() != refNow {
			t.Fatalf("final clock %v, reference %v", e.Now(), refNow)
		}
		if len(got) != len(want) {
			t.Fatalf("fired %d events, reference fired %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fire %d: engine (id=%d at=%v), reference (id=%d at=%v)",
					i, got[i].id, got[i].at, want[i].id, want[i].at)
			}
		}
		if e.Executed() != uint64(len(want)) {
			t.Fatalf("Executed = %d, want %d", e.Executed(), len(want))
		}
		if e.Pending() != 0 {
			t.Fatalf("Pending after drain = %d", e.Pending())
		}
	})
}
