package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/metrics"
)

// probe is what a traced op records: a span around each call the
// benchmark makes into the program, and counter sums read from the
// program's results. Workloads get a nil *probe in untraced ops; every
// method is a no-op on nil.
type probe struct {
	epoch time.Time
	spans []span
	op    int // ordinal of the traced op in progress
	root  int // span ID of that op
	sums  map[string]float64
}

// span is one call into the program, timed from outside it.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"` // 0 = none
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"` // since the run began
	DurMS   float64 `json:"dur_ms"`
	start   time.Time
}

func newProbe(epoch time.Time) *probe {
	return &probe{epoch: epoch, sums: make(map[string]float64)}
}

// begin opens a span under the current op and returns its ID.
func (p *probe) begin(name string) int {
	if p == nil {
		return 0
	}
	now := time.Now()
	p.spans = append(p.spans, span{
		ID: len(p.spans) + 1, Parent: p.root, Op: p.op, Name: name,
		StartMS: ms(now.Sub(p.epoch)), start: now,
	})
	return len(p.spans)
}

// end closes span id and returns its duration.
func (p *probe) end(id int) time.Duration {
	if p == nil || id == 0 {
		return 0
	}
	s := &p.spans[id-1]
	d := time.Since(s.start)
	s.DurMS = ms(d)
	return d
}

// startOp opens the root span of a traced op.
func (p *probe) startOp(name string) {
	p.op++
	p.root = 0
	p.root = p.begin(name)
	p.sums["ops"]++
}

func (p *probe) endOp() {
	p.end(p.root)
	p.root = 0
}

func (p *probe) add(name string, v float64) {
	if p != nil {
		p.sums[name] += v
	}
}

// addRun adds one simulated run's paging, disk and scheduling counters.
// The per-job attribution (switch and barrier time) exists only when the
// run kept rank ledgers.
func (p *probe) addRun(r metrics.RunResult) {
	if p == nil {
		return
	}
	for _, n := range r.Nodes {
		p.add("vm.major_faults", float64(n.MajorFaults))
		p.add("vm.minor_faults", float64(n.MinorFaults))
		p.add("vm.pages_in", float64(n.PagesIn))
		p.add("vm.pages_out", float64(n.PagesOut))
		p.add("vm.bg_pages_out", float64(n.BGPagesOut))
		p.add("vm.wasted_bg_write", float64(n.WastedBGWrite))
		p.add("vm.fault_stall_s", n.FaultStall.Seconds())
		p.add("disk.seeks", float64(n.DiskSeeks))
		p.add("disk.busy_s", n.DiskBusy.Seconds())
	}
	p.add("gang.switches", float64(r.Switches))
	for _, j := range r.Jobs {
		if a := j.Attribution; a != nil {
			p.add("gang.switch_s", a.Switch.Seconds())
			p.add("mpi.barrier_s", a.Barrier.Seconds())
		}
	}
}

// writeSpans saves the recorded spans as JSON.
func (p *probe) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(p.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// counters turns the sums into the per-layer counter metrics: per-op
// means, per-job and per-query means where the work is per job or query,
// and ratios of summed numerators and denominators.
func (p *probe) counters() map[string]float64 {
	s := p.sums
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ops, jobs, queries := s["ops"], s["jobs"], s["queries"]
	out := map[string]float64{
		"vm.major_faults":          div(s["vm.major_faults"], ops),
		"vm.minor_faults":          div(s["vm.minor_faults"], ops),
		"vm.pages_in":              div(s["vm.pages_in"], ops),
		"vm.pages_out":             div(s["vm.pages_out"], ops),
		"vm.fault_stall_s":         div(s["vm.fault_stall_s"], ops),
		"sim.events":               div(s["sim.events"], ops),
		"gang.switches":            div(s["gang.switches"], ops),
		"gang.switch_s":            div(s["gang.switch_s"], ops),
		"mpi.barrier_s":            div(s["mpi.barrier_s"], ops),
		"disk.seeks":               div(s["disk.seeks"], ops),
		"disk.busy_s":              div(s["disk.busy_s"], ops),
		"obs.events_per_job":       div(s["obs.events"], jobs),
		"store.bytes_per_event":    div(s["store.bytes"], s["store.events"]),
		"store.scan_ms":            div(s["store.scan_ms"], queries),
		"store.read_kb_per_query":  div(s["store.read_bytes"]/1024, queries),
		"store.events_per_query":   div(s["store.query_events"], queries),
		"queue.wait_ms":            div(s["queue.wait_ms"], jobs),
		"queue.attempts_per_job":   div(s["queue.attempts"], jobs),
		"serve.submit_ms":          div(s["serve.submit_ms"], jobs),
		"serve.run_ms":             div(s["serve.run_ms"], jobs),
		"serve.result_ms":          div(s["serve.result_ms"], jobs),
		"serve.result_kb":          div(s["serve.result_bytes"]/1024, jobs),
		"runtime.gc_cycles_per_op": div(s["gc_cycles"], ops),
		"vm.bg_useful_ratio":       0,
		"disk.pages_per_seek": div(s["vm.pages_in"]+s["vm.pages_out"]+s["vm.bg_pages_out"],
			s["disk.seeks"]),
	}
	if bg := s["vm.bg_pages_out"]; bg > 0 {
		out["vm.bg_useful_ratio"] = 1 - s["vm.wasted_bg_write"]/bg
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
