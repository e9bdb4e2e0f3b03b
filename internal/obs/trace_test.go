// Unit tests for the tracing subsystem's primitives: the span tracer, the
// rank attribution ledger and the stream sink.
package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if id := tr.Begin(0, SpanFault, 0, 0, "", 1); id != 0 {
		t.Fatalf("nil tracer Begin returned %d", id)
	}
	tr.End(1, 1, 0)
	if id := tr.EmitSpan(Span{Kind: SpanFault}); id != 0 {
		t.Fatalf("nil tracer EmitSpan returned %d", id)
	}
	tr.SetEpoch(5)
	if tr.Epoch() != 0 || tr.Spans() != nil || tr.Dropped() != 0 || tr.Open() != 0 {
		t.Fatal("nil tracer leaked state")
	}
	tr.CloseAll(10)
}

func TestTracerNesting(t *testing.T) {
	tr := NewTracer(16)
	epoch := tr.Begin(100, SpanSwitchEpoch, 0, ClusterScope, "job", 0)
	tr.SetEpoch(epoch)
	fault := tr.Begin(150, SpanFault, tr.Epoch(), 0, "", 7)
	tr.End(250, fault, 1)
	tr.End(300, epoch, 32)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(spans))
	}
	// Spans close in end order; the fault closed first and parents to the
	// epoch even though the epoch's ID outlived it.
	f, e := spans[0], spans[1]
	if f.Kind != SpanFault || f.Parent != epoch || f.PID != 7 || f.Duration() != 100 {
		t.Fatalf("fault span malformed: %+v", f)
	}
	if e.Kind != SpanSwitchEpoch || e.Parent != 0 || e.Pages != 32 || e.Node != ClusterScope {
		t.Fatalf("epoch span malformed: %+v", e)
	}
}

func TestTracerReserveEmit(t *testing.T) {
	tr := NewTracer(16)
	id := tr.Reserve()
	if id == 0 || tr.Open() != 0 {
		t.Fatalf("Reserve returned %d with %d open", id, tr.Open())
	}
	child := tr.Emit(SpanDiskTransfer, id, 0, 1, 5, 8, 4)
	if child <= id {
		t.Fatalf("child ID %d not after reserved %d", child, id)
	}
	tr.EmitReserved(id, SpanFault, 0, 2, 1, 0, 10, 0)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(spans))
	}
	// The reserved span closes after its child but keeps the earlier ID,
	// so the causal edge stays intact.
	if spans[0].Parent != id || spans[1].ID != id || spans[1].Node != 2 || spans[1].Duration() != 10 {
		t.Fatalf("reserved span malformed: %+v", spans)
	}
	var nilTr *Tracer
	if nilTr.Reserve() != 0 {
		t.Fatal("nil tracer reserved an ID")
	}
	nilTr.EmitReserved(1, SpanFault, 0, 0, 0, 0, 1, 0)
	tr.EmitReserved(0, SpanFault, 0, 0, 0, 0, 1, 0) // zero ID: tracing was off
	if tr.Count() != 2 {
		t.Fatalf("zero-ID emit recorded a span: %d", tr.Count())
	}
}

func TestTracerEndUnknownIgnored(t *testing.T) {
	tr := NewTracer(4)
	tr.End(10, 0, 0)  // zero ID: tracing was off at Begin time
	tr.End(10, 99, 0) // never opened
	if len(tr.Spans()) != 0 || tr.Open() != 0 {
		t.Fatal("phantom spans recorded")
	}
}

func TestLatchClosesAfterLastCompletion(t *testing.T) {
	var nilLatch *Latch
	if NewLatch(nil, 1) != nil || NewLatch(NewTracer(4), 0) != nil {
		t.Fatal("latch on no span")
	}
	nilLatch.Hold(1)
	nilLatch.Add(1)
	nilLatch.Release(1)
	nilLatch.Arm(1)
	if nilLatch.Span() != 0 {
		t.Fatal("nil latch has a span")
	}

	tr := NewTracer(4)
	l := NewLatch(tr, tr.Begin(10, SpanPageOutDrain, 0, 0, "", 1))
	l.Hold(2)
	l.Add(8)
	l.Release(12) // fired inside the holding call: must not close
	if tr.Open() != 1 {
		t.Fatal("span closed before Arm")
	}
	l.Arm(15)
	l.Add(4)
	if tr.Open() != 1 {
		t.Fatal("span closed with a completion held")
	}
	l.Release(30)
	if s := tr.Spans(); len(s) != 1 || s[0].Start != 10 || s[0].End != 30 || s[0].Pages != 12 {
		t.Fatalf("latched span: %+v", s)
	}

	zero := NewLatch(tr, tr.Begin(40, SpanSwitchEpoch, 0, ClusterScope, "job", 0))
	zero.Arm(40)
	if s := tr.Spans(); len(s) != 2 || s[1].Duration() != 0 {
		t.Fatalf("latch with nothing held: %+v", s)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 7; i++ {
		id := tr.Begin(sim.Time(i), SpanFault, 0, 0, "", i)
		tr.End(sim.Time(i+1), id, 0)
	}
	spans := tr.Spans()
	if len(spans) != 4 || tr.Dropped() != 3 {
		t.Fatalf("want 4 retained / 3 dropped, got %d / %d", len(spans), tr.Dropped())
	}
	// Oldest evicted first: the survivors are spans 4..7 in close order.
	for i, s := range spans {
		if want := SpanID(i + 4); s.ID != want {
			t.Fatalf("span %d: ID %d, want %d", i, s.ID, want)
		}
	}
}

func TestTracerCloseAllDeterministic(t *testing.T) {
	tr := NewTracer(16)
	var ids []SpanID
	for i := 0; i < 5; i++ {
		ids = append(ids, tr.Begin(sim.Time(i), SpanPrefault, 0, 0, "", i))
	}
	tr.CloseAll(100)
	if tr.Open() != 0 {
		t.Fatalf("%d spans still open", tr.Open())
	}
	spans := tr.Spans()
	for i, s := range spans {
		if s.ID != ids[i] || s.End != 100 {
			t.Fatalf("CloseAll out of order or mistimed: %+v", spans)
		}
	}
}

func TestTracerFeedsHistograms(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(16)
	tr.FaultService = reg.Histogram(MetricTraceFaultService, "", nil, FaultStallBuckets)
	id := tr.Begin(0, SpanFault, 0, 0, "", 1)
	tr.End(sim.Time(2*sim.Millisecond), id, 0)
	tr.Emit(SpanDiskQueue, 0, 0, 1, 0, 10, 0) // DiskQueue histogram nil: must not panic
	if got := tr.FaultService.Count(); got != 1 {
		t.Fatalf("fault-service observations = %d", got)
	}
	if sum := tr.FaultService.Sum(); sum < 0.0019 || sum > 0.0021 {
		t.Fatalf("fault-service sum = %v, want 2ms", sum)
	}
}

func TestSpanKindJSONRoundTrip(t *testing.T) {
	for k := SpanSwitchEpoch; k <= SpanBarrierGen; k++ {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back SpanKind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("kind %v round-tripped to %v", k, back)
		}
	}
	if _, err := json.Marshal(SpanKind(99)); err == nil {
		t.Fatal("unknown kind marshalled")
	}
}

func TestLedgerPartition(t *testing.T) {
	l := NewRankLedger(100)
	l.Transition(150, CatCompute) // 50 queue
	l.Transition(250, CatBarrier) // 100 compute
	l.Transition(280, CatFault)   // 30 barrier
	l.Retag(CatSwitch)            // refine the fault stall, no time passes
	l.Transition(380, CatCompute) // 100 switch
	l.Finish(400)                 // 20 compute
	a := l.Snapshot(9999)         // now ignored once frozen
	want := Attribution{Compute: 120, Barrier: 30, Switch: 100, Queue: 50}
	if a != want {
		t.Fatalf("attribution %+v, want %+v", a, want)
	}
	if a.Total() != 300 || l.FrozenAt() != 400 || !l.Done() {
		t.Fatalf("total %v frozen %v done %v", a.Total(), l.FrozenAt(), l.Done())
	}
	if err := l.Check(500); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerDownSplitsIdle(t *testing.T) {
	l := NewRankLedger(0)
	l.SetDown(40, true) // idle since 0: split at 40, now accruing down
	l.SetDown(90, false)
	l.Transition(100, CatCompute)
	a := l.Snapshot(100)
	if want := (Attribution{Queue: 50, Down: 50}); a != want {
		t.Fatalf("attribution %+v, want %+v", a, want)
	}
	// Down while computing must not retag the compute segment.
	l.SetDown(120, true)
	l.TransitionIdle(130)
	a = l.Snapshot(150)
	if a.Compute != 30 || a.Down != 70 {
		t.Fatalf("attribution %+v, want compute 30 / down 70", a)
	}
	if err := l.Check(150); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerNilSafe(t *testing.T) {
	var l *RankLedger
	l.Transition(10, CatCompute)
	l.TransitionIdle(20)
	l.Retag(CatSwitch)
	l.SetDown(30, true)
	l.Finish(40)
	if l.Done() || l.FrozenAt() != 0 || l.Current() != CatQueue {
		t.Fatal("nil ledger leaked state")
	}
	if (l.Snapshot(50) != Attribution{}) {
		t.Fatal("nil ledger produced attribution")
	}
	if err := l.Check(60); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerDefer books a compute segment that folded stalls of two
// categories ahead of the clock: until the segment closes the deferred
// time stays out of every bucket, and at the close it lands exactly.
func TestLedgerDefer(t *testing.T) {
	l := NewRankLedger(0)
	l.Transition(100, CatCompute) // 100 queue
	l.Defer(CatFault, 7)
	l.Defer(CatSwitch, 5)
	l.Defer(CatFault, 7)
	// The stalls lie after now while pending: conservation holds and no
	// bucket goes negative, even at the segment's first instant.
	for _, now := range []sim.Time{100, 103, 150} {
		if err := l.Check(now); err != nil {
			t.Fatalf("Check(%v) with deferrals pending: %v", now, err)
		}
		a := l.Snapshot(now)
		if want := (Attribution{Queue: 100, Compute: now.Sub(100)}); a != want {
			t.Fatalf("Snapshot(%v) = %+v, want %+v", now, a, want)
		}
	}
	l.Transition(160, CatBarrier) // 60 closed: 14 fault, 5 switch, 41 compute
	a := l.Snapshot(170)
	if want := (Attribution{Queue: 100, Compute: 41, Fault: 14, Switch: 5, Barrier: 10}); a != want {
		t.Fatalf("attribution %+v, want %+v", a, want)
	}
	// The flush consumed the deferrals: the next segment books plainly.
	l.Transition(200, CatCompute)
	if a := l.Snapshot(200); a.Fault != 14 || a.Switch != 5 || a.Barrier != 40 {
		t.Fatalf("attribution %+v after a second transition", a)
	}
	if err := l.Check(200); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerFinishFlushesDeferred ends a rank inside the segment that
// holds a deferral, and checks frozen and nil ledgers ignore Defer.
func TestLedgerFinishFlushesDeferred(t *testing.T) {
	l := NewRankLedger(0)
	l.Transition(10, CatCompute)
	l.Defer(CatSwitch, 7)
	l.Finish(30)
	if want := (Attribution{Queue: 10, Compute: 13, Switch: 7}); l.Snapshot(30) != want {
		t.Fatalf("attribution %+v, want %+v", l.Snapshot(30), want)
	}
	l.Defer(CatFault, 5) // frozen: ignored
	if err := l.Check(40); err != nil {
		t.Fatal(err)
	}
	if want := (Attribution{Queue: 10, Compute: 13, Switch: 7}); l.Snapshot(40) != want {
		t.Fatalf("Defer after Finish changed the attribution: %+v", l.Snapshot(40))
	}
	var nilLed *RankLedger
	nilLed.Defer(CatFault, 5)
	if (nilLed.Snapshot(50) != Attribution{}) {
		t.Fatal("nil ledger accrued a deferral")
	}
}

func TestLedgerCheckCatchesClockSkew(t *testing.T) {
	l := NewRankLedger(100)
	if err := l.Check(50); err == nil {
		t.Fatal("Check accepted now before the last transition")
	}
	if err := l.Check(100); err != nil {
		t.Fatal(err)
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("empty export invalid: %s", buf.Bytes())
	}
}
