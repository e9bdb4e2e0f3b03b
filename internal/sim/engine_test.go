package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("new engine clock = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine has %d pending events", e.Pending())
	}
}

func TestScheduleAndRunOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("clock after run = %v, want 30", e.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		e.Schedule(7, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var trace []Time
	e.Schedule(5, func() {
		trace = append(trace, e.Now())
		e.Schedule(5, func() { trace = append(trace, e.Now()) })
		// Zero-delay event must still run, after already-queued same-time
		// events scheduled earlier.
		e.Schedule(0, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	if len(trace) != 3 || trace[0] != 5 || trace[1] != 5 || trace[2] != 10 {
		t.Fatalf("trace = %v, want [5 5 10]", trace)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	if !ev.Pending() {
		t.Fatal("event should be pending before firing")
	}
	if !ev.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Pending() {
		t.Fatal("cancelled event still pending")
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(1, func() {})
	e.Run()
	if ev.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.Schedule(10, func() { fired = append(fired, e.Now()) })
	e.Schedule(100, func() { fired = append(fired, e.Now()) })
	e.RunUntil(50)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("RunUntil(50) fired %v, want [10]", fired)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %v, want 50", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if len(fired) != 2 || fired[1] != 100 {
		t.Fatalf("final fires = %v", fired)
	}
}

func TestRunForIsRelative(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Schedule(10, func() { n++ })
	e.Schedule(30, func() { n++ })
	e.RunFor(20) // until t=20
	if n != 1 || e.Now() != 20 {
		t.Fatalf("after RunFor(20): n=%d now=%v", n, e.Now())
	}
	e.RunFor(20) // until t=40
	if n != 2 || e.Now() != 40 {
		t.Fatalf("after second RunFor(20): n=%d now=%v", n, e.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(-1) did not panic")
		}
	}()
	NewEngine(1).Schedule(-1, func() {})
}

func TestAtPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At(past) did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At with nil fn did not panic")
		}
	}()
	NewEngine(1).Schedule(1, nil)
}

func TestNextEventTime(t *testing.T) {
	e := NewEngine(1)
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty engine reports a next event")
	}
	ev := e.Schedule(42, func() {})
	if at, ok := e.NextEventTime(); !ok || at != 42 {
		t.Fatalf("next = %v,%v want 42,true", at, ok)
	}
	ev.Cancel()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("cancelled event still reported as next")
	}
}

// TestHorizonStopsWhereTheCallerStops pins what an event may fast-forward
// through: up to the queue's next event, and no further than just past
// StepUntil's bound while that bound's event runs.
func TestHorizonStopsWhereTheCallerStops(t *testing.T) {
	e := NewEngine(1)
	type seen struct {
		h       Time
		bounded bool
	}
	var got []seen
	probe := func() {
		h, ok := e.Horizon()
		got = append(got, seen{h, ok})
	}
	e.Schedule(10, probe)
	e.Schedule(10, probe)
	e.Schedule(50, probe)
	e.RunUntil(20) // the tie at 10 bounds the first; the stop at 20 the second
	e.Step()       // no caller bound: only the queue, now empty
	e.Schedule(5, probe)
	e.RunFor(100) // at 55; the stop at 150 bounds it
	want := []seen{{10, true}, {21, true}, {0, false}, {151, true}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("horizons %v, want %v", got, want)
	}
	if h, ok := e.Horizon(); ok {
		t.Fatalf("idle engine reports horizon %v", h)
	}
	if e.StepUntil(never) {
		t.Fatal("StepUntil fired on an empty queue")
	}
}

// TestRearmReusesTheEvent pins Rearm: a fired event fires again with its
// callback after the delay, in (at, seq) order as if newly scheduled, and
// can be cancelled again.
func TestRearmReusesTheEvent(t *testing.T) {
	e := NewEngine(1)
	var order []string
	var ev *Event
	ev = e.Schedule(5, func() {
		order = append(order, fmt.Sprint("tick@", int64(e.Now())))
		if e.Now() < 15 {
			e.Rearm(ev, 5)
		}
	})
	e.Schedule(10, func() { order = append(order, "other@10") })
	e.Run()
	if want := "[tick@5 other@10 tick@10 tick@15]"; fmt.Sprint(order) != want {
		t.Fatalf("fired %v, want %s", order, want)
	}
	e.Rearm(ev, 1)
	if !ev.Pending() || !ev.Cancel() {
		t.Fatal("a re-armed event is not pending or cannot be cancelled")
	}
	e.Run()
	if len(order) != 4 {
		t.Fatalf("cancelled re-arm fired: %v", order)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Rearm of a pending event did not panic")
		}
	}()
	e.Rearm(e.Schedule(1, func() {}), 1)
}

func TestExecutedCountsOnlyFired(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(1, func() {})
	ev := e.Schedule(2, func() {})
	ev.Cancel()
	e.Schedule(3, func() {})
	e.Run()
	if e.Executed() != 2 {
		t.Fatalf("Executed = %d, want 2", e.Executed())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(99)
		var out []int64
		var rec func()
		rec = func() {
			out = append(out, int64(e.Now()), e.Rand().Int63n(1000))
			if len(out) < 40 {
				e.Schedule(Duration(e.Rand().Int63n(50)+1), rec)
			}
		}
		e.Schedule(1, rec)
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestRandSeededOnFirstUse pins that a run whose callbacks never draw
// builds no random source, and that the first draw sees the seed's
// sequence.
func TestRandSeededOnFirstUse(t *testing.T) {
	var e *Engine
	if n := testing.AllocsPerRun(10, func() { e = NewEngine(5) }); n != 1 {
		t.Fatalf("NewEngine allocates %v times, want 1 (the engine only)", n)
	}
	e.Schedule(1, func() { e.Schedule(2, func() {}) })
	e.Run()
	if e.rng != nil {
		t.Fatal("a run that never called Rand built a random source")
	}
	want := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		if got, w := e.Rand().Int63(), want.Int63(); got != w {
			t.Fatalf("draw %d = %d, want %d from seed 5", i, got, w)
		}
	}
}

// Property: for any set of delays, events fire in non-decreasing time order
// and the engine visits every one of them.
func TestQuickFireOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var fired []Time
		for _, d := range delays {
			e.Schedule(Duration(d), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		// The multiset of fire times must equal the multiset of delays.
		want := make([]Time, len(delays))
		for i, d := range delays {
			want[i] = Time(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := append([]Time(nil), fired...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset leaves exactly the complement to
// fire.
func TestQuickCancelSubset(t *testing.T) {
	f := func(delays []uint8, mask []bool) bool {
		e := NewEngine(7)
		fired := 0
		evs := make([]*Event, len(delays))
		for i, d := range delays {
			evs[i] = e.Schedule(Duration(d), func() { fired++ })
		}
		cancelled := 0
		for i, ev := range evs {
			if i < len(mask) && mask[i] {
				if ev.Cancel() {
					cancelled++
				}
			}
		}
		e.Run()
		return fired == len(delays)-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

// Regression: Pending must exclude cancelled-but-unpopped events. The old
// heap decremented its count only when a cancelled event reached the top.
func TestPendingExcludesCancelled(t *testing.T) {
	e := NewEngine(1)
	evs := make([]*Event, 10)
	for i := range evs {
		evs[i] = e.Schedule(Duration(10+i), func() {})
	}
	// One far-future event exercises the spill tier's accounting too.
	far := e.Schedule(10*Second, func() {})
	if e.Pending() != 11 {
		t.Fatalf("Pending = %d, want 11", e.Pending())
	}
	for i := 0; i < 4; i++ {
		evs[i].Cancel()
	}
	far.Cancel()
	if e.Pending() != 6 {
		t.Fatalf("Pending after 5 cancels = %d, want 6", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after Run = %d, want 0", e.Pending())
	}
	if e.Executed() != 6 {
		t.Fatalf("Executed = %d, want 6", e.Executed())
	}
}

// Regression: RunUntil peeks the head and then steps; each event must fire
// exactly once no matter how the run is chopped into RunUntil windows.
func TestRunUntilFiresEachEventOnce(t *testing.T) {
	e := NewEngine(1)
	count := make([]int, 100)
	for i := range count {
		i := i
		e.Schedule(Duration(i), func() { count[i]++ })
	}
	for limit := Time(0); limit <= 100; limit += 7 {
		e.RunUntil(limit)
	}
	e.Run()
	for i, c := range count {
		if c != 1 {
			t.Fatalf("event %d fired %d times", i, c)
		}
	}
	if e.Executed() != 100 {
		t.Fatalf("Executed = %d, want 100", e.Executed())
	}
}

// Cancelling more events than remain live triggers compaction; the survivors
// must still fire exactly once, in order.
func TestCancelCompaction(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	evs := make([]*Event, 400)
	for i := range evs {
		evs[i] = e.Schedule(Duration(i%97+1), func() { fired = append(fired, e.Now()) })
	}
	live := 0
	for i, ev := range evs {
		if i%8 == 0 {
			live++
			continue
		}
		if !ev.Cancel() {
			t.Fatalf("Cancel of pending event %d failed", i)
		}
	}
	if e.Pending() != live {
		t.Fatalf("Pending after mass cancel = %d, want %d", e.Pending(), live)
	}
	for i, ev := range evs {
		if i%8 == 0 && !ev.Pending() {
			t.Fatalf("live event %d lost by compaction", i)
		}
	}
	e.Run()
	if e.Executed() != uint64(live) || len(fired) != live {
		t.Fatalf("fired %d events (Executed %d), want %d", len(fired), e.Executed(), live)
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatalf("fire times not sorted: %v", fired)
	}
}

// CountCollapsed adds the collapsed run's weight to Executed, within the
// step that collapsed it, and not to Steps.
func TestCountCollapsedWeighting(t *testing.T) {
	e := NewEngine(1)
	type step struct {
		at       Time
		executed uint64
	}
	var steps []step
	e.Schedule(1, func() {})
	e.Schedule(2, func() { e.CountCollapsed(3) })
	e.Schedule(3, func() {})
	for e.Step() {
		steps = append(steps, step{e.Now(), e.Executed()})
	}
	want := []step{{1, 1}, {2, 5}, {3, 6}}
	if len(steps) != len(want) {
		t.Fatalf("steps = %v, want %v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("steps = %v, want %v", steps, want)
		}
	}
	if e.Executed() != 6 || e.Steps() != 3 {
		t.Fatalf("Executed = %d, Steps = %d; want 6 (3 physical + 3 collapsed) and 3", e.Executed(), e.Steps())
	}
}

// Events beyond the wheel's span land in the spill tier and rotate back into
// the wheel in order; a long idle gap then re-anchors the wheel.
func TestSpillRotationOrder(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	delays := []Duration{
		5 * Second, 100 * Microsecond, 90 * Millisecond, 1 * Millisecond,
		3 * Second, 70 * Millisecond, 65536 * Microsecond, 2 * Second,
	}
	for _, d := range delays {
		e.Schedule(d, rec)
	}
	e.Run()
	if len(fired) != len(delays) {
		t.Fatalf("fired %d of %d events", len(fired), len(delays))
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatalf("fire order not sorted: %v", fired)
	}
	// Far-future FIFO ties survive the spill tier and rotation.
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("spill ties fired out of order: %v", order)
		}
	}
	// Re-anchor: after the long gap the next near event must not misplace.
	e.Schedule(10*Microsecond, rec)
	before := e.Now()
	e.Run()
	if e.Now() != before.Add(10*Microsecond) {
		t.Fatalf("post-gap event fired at %v, want %v", e.Now(), before.Add(10*Microsecond))
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(0).Add(3 * Second)
	if tm != Time(3_000_000) {
		t.Fatalf("3s = %d µs?", tm)
	}
	if tm.Sub(Time(1_000_000)) != 2*Second {
		t.Fatalf("Sub wrong: %v", tm.Sub(Time(1_000_000)))
	}
	if tm.Seconds() != 3.0 {
		t.Fatalf("Seconds = %v", tm.Seconds())
	}
	if (2500 * Millisecond).Seconds() != 2.5 {
		t.Fatalf("Duration.Seconds = %v", (2500 * Millisecond).Seconds())
	}
	if (3 * Millisecond).Millis() != 3.0 {
		t.Fatalf("Millis = %v", (3 * Millisecond).Millis())
	}
	if DurationOf(1500*time.Microsecond) != 1500 {
		t.Fatalf("DurationOf = %v", DurationOf(1500*time.Microsecond))
	}
}

func TestDurationScale(t *testing.T) {
	if got := (10 * Second).Scale(0.5); got != 5*Second {
		t.Fatalf("Scale(0.5) = %v", got)
	}
	if got := Duration(3).Scale(1.0 / 3.0); got != 1 {
		t.Fatalf("Scale rounding = %v, want 1", got)
	}
	if got := Duration(-4).Scale(0.5); got != -2 {
		t.Fatalf("negative Scale = %v, want -2", got)
	}
}

func TestCheckNonNegative(t *testing.T) {
	Duration(0).CheckNonNegative("zero ok")
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration did not panic")
		}
	}()
	Duration(-1).CheckNonNegative("seek")
}

func TestStringFormats(t *testing.T) {
	if s := (1500 * Millisecond).String(); s != "1.5s" {
		t.Fatalf("Duration.String = %q", s)
	}
	if s := Time(2_000_000).String(); s != "2s" {
		t.Fatalf("Time.String = %q", s)
	}
}
