package gangsched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// observedSpec is the fast two-job over-commit spec every observability
// test runs: small enough to finish in well under a second, stressed enough
// to page, fault, reclaim and switch.
func observedSpec(o *obs.Options) Spec {
	return Spec{
		Nodes:    1,
		MemoryMB: 8,
		Policy:   "so/ao/ai/bg",
		Quantum:  time.Second,
		Seed:     7,
		Observe:  o,
		Jobs: []JobSpec{
			{Name: "a", Workload: fastJob(1000, 40), HintWorkingSet: true},
			{Name: "b", Workload: fastJob(1000, 40), HintWorkingSet: true},
		},
	}
}

// TestKeepEventsAllocatesWhatItKeeps pins that a run keeping its events
// pays for the events it keeps, not for the ring's whole capacity: a
// KeepEvents run of the four-node spec (a few hundred events) allocates
// under 1 MB in all, where a ring built at DefaultEventCap up front would
// take 10 MB by itself. It reads runtime.MemStats.TotalAlloc, so it must
// not run in parallel.
func TestKeepEventsAllocatesWhatItKeeps(t *testing.T) {
	spec := fourNodeSpec("so/ao/ai/bg")
	spec.Observe = &obs.Options{KeepEvents: true}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h, err := RunDetailed(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Events) == 0 {
		t.Fatal("KeepEvents run kept no events")
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("KeepEvents run of %d events: %d bytes", len(h.Events), got)
	if got >= 1<<20 {
		t.Fatalf("KeepEvents run of %d events allocated %d bytes, want under 1 MiB", len(h.Events), got)
	}
}

func TestObserveDisabledByDefault(t *testing.T) {
	h, err := RunDetailed(observedSpec(nil))
	if err != nil {
		t.Fatal(err)
	}
	if h.Events != nil || h.Metrics != nil {
		t.Fatalf("observability surfaced without Observe: events=%d metrics=%v",
			len(h.Events), h.Metrics)
	}
}

func TestObserveEventsMatchResult(t *testing.T) {
	count := obs.NewCountSink()
	h, err := RunDetailed(observedSpec(&obs.Options{
		Sinks:      []obs.Sink{count},
		KeepEvents: true,
		Metrics:    true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	res := h.Result

	// The acceptance criterion: one JobSwitch event per counted switch.
	if got := count.ByKind[obs.KindJobSwitch]; got != int64(res.Switches) {
		t.Fatalf("JobSwitch events = %d, RunResult.Switches = %d", got, res.Switches)
	}
	if count.Total == 0 || len(h.Events) == 0 {
		t.Fatal("over-commit run emitted no events")
	}
	for _, kind := range []obs.Kind{obs.KindPageOutBatch, obs.KindDiskTransfer} {
		if count.ByKind[kind] == 0 {
			t.Errorf("no %v events from a thrashing run", kind)
		}
	}

	// Every fault — major or minor — observes its stall exactly once.
	if h.Metrics == nil {
		t.Fatal("metrics registry missing")
	}
	node := res.Nodes[0]
	stall := h.Metrics.Histogram(obs.MetricFaultStall, "", obs.Labels{"node": "0"}, obs.FaultStallBuckets)
	if want := node.MajorFaults + node.MinorFaults; stall.Count() != want {
		t.Errorf("fault-stall observations = %d, faults = %d", stall.Count(), want)
	}
	if diff := stall.Sum() - node.FaultStall.Seconds(); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("fault-stall sum = %vs, stats say %vs", stall.Sum(), node.FaultStall.Seconds())
	}
}

// promSeries renders reg and maps each exposition line's series
// (name{labels}) to its value text.
func promSeries(t *testing.T, reg *obs.Registry) map[string]string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	return parseProm(buf.String())
}

// parseProm maps each sample line of a Prometheus text exposition to its
// value text, keyed by series (name{labels}).
func parseProm(text string) map[string]string {
	out := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			out[line[:i]] = line[i+1:]
		}
	}
	return out
}

// promFloat renders v as the exposition does.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// viewMatrixSpecs is the run set every metric view is checked over: the
// §4.3 policy ladder and batch, on observedSpec and on faultSoakSpec, plus
// TestObserveBarrierEvents' two-node barrier spec.
func viewMatrixSpecs(o func() *obs.Options) map[string]Spec {
	specs := map[string]Spec{"barrier": barrierSpec(o())}
	for name, mk := range map[string]func(*obs.Options) Spec{"observed": observedSpec, "faultsoak": faultSoakSpec} {
		for _, policy := range []string{"batch", "orig", "ai", "so", "so/ao", "so/ao/bg", "so/ao/ai/bg"} {
			s := mk(o())
			if s.Policy = policy; policy == "batch" {
				s.Batch, s.Policy = true, "orig"
			}
			specs[name+" "+policy] = s
		}
	}
	return specs
}

// TestObserveViewsMatchResult pins the exposition to the totals RunResult
// reports, line by line: a view reads the model's own counter, so each
// line is the RunResult value (or an event-stream tally, for totals the
// result leaves out) rendered once, with no float sum of its own. The
// views RunResult cannot see (switch evictions, quanta, the clock and the
// engine's event count) are pinned against the model in internal/cluster.
func TestObserveViewsMatchResult(t *testing.T) {
	specs := viewMatrixSpecs(func() *obs.Options {
		return &obs.Options{Metrics: true, Trace: true, Ledger: true, KeepEvents: true}
	})
	for name, spec := range specs {
		h, err := RunDetailed(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(h.Events) > 0 && h.Events[0].Seq != 1 {
			t.Fatalf("%s: event ring dropped events; the tallies below need them all", name)
		}
		res := h.Result
		want := map[string]float64{
			obs.MetricSwitches:    float64(res.Switches),
			obs.MetricJobRequeues: float64(res.Faults.Requeues),
		}
		for i, n := range res.Nodes {
			l := fmt.Sprintf(`{node="%d"}`, i)
			want[obs.MetricPagesIn+l] = float64(n.PagesIn)
			want[obs.MetricPagesOut+l] = float64(n.PagesOut)
			want[obs.MetricBGPagesOut+l] = float64(n.BGPagesOut)
			want[obs.MetricMajorFaults+l] = float64(n.MajorFaults)
			want[obs.MetricMinorFaults+l] = float64(n.MinorFaults)
			want[obs.MetricDiskBusySeconds+l] = n.DiskBusy.Seconds()
			want[obs.MetricDiskSeeks+l] = float64(n.DiskSeeks)
			want[obs.MetricDiskRetries+l] = float64(n.DiskRetries)
			want[obs.MetricReclaimPasses+l] = 0
			want[obs.MetricPrefaultPages+l] = 0
			want[obs.MetricBGWritePasses+l] = 0
		}
		for _, ev := range h.Events {
			l := fmt.Sprintf(`{node="%d"}`, ev.Node)
			switch ev.Kind {
			case obs.KindReclaimScan:
				want[obs.MetricReclaimPasses+l]++
			case obs.KindPrefaultBatch:
				want[obs.MetricPrefaultPages+l] += float64(ev.Pages)
			case obs.KindBGWriteTick:
				want[obs.MetricBGWritePasses+l]++
			}
		}
		for k, j := range res.Jobs {
			if spec.Jobs[k].Workload.SyncEveryIter {
				want[fmt.Sprintf(`%s{job=%q}`, obs.MetricBarrierWait, j.Name)] = j.BarrierWait.Seconds()
			}
		}
		got := promSeries(t, h.Metrics)
		for series, v := range want {
			if got[series] != promFloat(v) {
				t.Errorf("%s: %s = %q, RunResult says %s", name, series, got[series], promFloat(v))
			}
		}
	}
}

func TestObserveJSONLDeterministic(t *testing.T) {
	runJSONL := func() []byte {
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		if _, err := RunDetailed(observedSpec(&obs.Options{Sinks: []obs.Sink{sink}})); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := runJSONL(), runJSONL()
	if len(a) == 0 {
		t.Fatal("empty event log")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different event logs")
	}
	// And the log must parse back into the same number of events.
	events, err := obs.ReadJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != bytes.Count(a, []byte("\n")) {
		t.Fatalf("parsed %d events from %d lines", len(events), bytes.Count(a, []byte("\n")))
	}
}

func TestObservePromOutput(t *testing.T) {
	h, err := RunDetailed(observedSpec(&obs.Options{Metrics: true}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.Metrics.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		obs.MetricPagesIn, obs.MetricPagesOut, obs.MetricSwitches,
		obs.MetricFaultStall, obs.MetricSimTime,
	} {
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Errorf("exposition lacks %s", name)
		}
	}
	// Every non-comment line must be `name{labels} value`.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || !strings.HasPrefix(fields[0], "gangsim_") {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestObserveResultJSONRoundTrip(t *testing.T) {
	res, err := Run(observedSpec(nil))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back metrics.RunResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Makespan != res.Makespan || back.Switches != res.Switches ||
		len(back.Jobs) != len(res.Jobs) || len(back.Nodes) != len(res.Nodes) ||
		len(back.Timeline) != len(res.Timeline) {
		t.Fatalf("round trip lost data: %+v vs %+v", back, res)
	}
	if back.Nodes[0] != res.Nodes[0] {
		t.Fatalf("node stats mutated: %+v vs %+v", back.Nodes[0], res.Nodes[0])
	}
}

// barrierSpec is two synchronising jobs time-sharing two nodes.
func barrierSpec(o *obs.Options) Spec {
	return Spec{
		Nodes:    2,
		MemoryMB: 6,
		Policy:   "orig",
		Quantum:  200 * time.Millisecond,
		Observe:  o,
		Jobs: []JobSpec{
			{Name: "a", Workload: parallelJob(900, 40)},
			{Name: "b", Workload: parallelJob(900, 40)},
		},
	}
}

func TestObserveBarrierEvents(t *testing.T) {
	h, err := RunDetailed(barrierSpec(&obs.Options{KeepEvents: true}))
	if err != nil {
		t.Fatal(err)
	}
	stalls := 0
	for _, ev := range h.Events {
		if ev.Kind != obs.KindBarrierStall {
			continue
		}
		stalls++
		if ev.Node != obs.ClusterScope || ev.Ranks != 2 || (ev.Job != "a" && ev.Job != "b") {
			t.Fatalf("malformed barrier event: %+v", ev)
		}
	}
	if stalls == 0 {
		t.Fatal("synchronising jobs emitted no barrier events")
	}
}
