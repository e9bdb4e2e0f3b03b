// Command perfbench is the repository's benchmark: it runs one workload in
// a closed loop with one caller for a fixed time, checks every op's output,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of its output. See NOTES.md.
//
//	bash perfbench/run.sh --workload paper-fig7 --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// bench is one benchmark workload, built by its constructor from the seed
// (input generation and program set-up).
type bench interface {
	// warmup runs the untimed ops that end set-up rep rep (counted from
	// 0) and reports how many it attempted and how many failed. prev is
	// the previous rep's workload (nil for the first), for what the reps
	// build up together.
	warmup(rep int, prev bench) (attempted, failed int)
	// op runs one timed op, checks its output and returns the op's
	// logical engine events. A non-nil probe marks a traced op.
	op(p *probe) (uint64, error)
	close() error
}

// followUp is implemented by workloads that issue a call after each op
// which belongs to the closed loop but not to the op's latency.
type followUp interface {
	after(p *probe) error
}

// detailer is implemented by workloads with metrics of their own, printed
// on the details line.
type detailer interface {
	details() map[string]float64
}

var workloads = map[string]func(seed int64) (bench, error){
	"paper-fig7":   newFig7,
	"scale-gangs":  newScale,
	"service-jobs": newService,
}

const (
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median, so one slow interval on a noisy host does not decide it.
	// paper-fig7's three reps together count the study's engine events.
	setupReps = 3
	// tracePhase is the shortest stretch of ops a traced run profiles (or
	// leaves unprofiled) before switching; the two kinds of stretch
	// alternate so the tracing overhead is measured under the same noise.
	tracePhase = 2 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: paper-fig7, scale-gangs or service-jobs")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || o.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, details, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(details); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// loop is the state of one run's closed loop.
type loop struct {
	w                 bench
	attempted, failed int
	lats              []float64 // ms, successful ops
	tracedLats        []float64 // ms, successful traced ops
	events            uint64
}

// step runs one op and its follow-up call, timing the op alone.
func (l *loop) step(p *probe) {
	l.attempted++
	if p != nil {
		p.startOp("op")
	}
	t0 := time.Now()
	n, err := l.w.op(p)
	lat := ms(time.Since(t0))
	if p != nil {
		p.endOp()
	}
	if f, ok := l.w.(followUp); ok && err == nil {
		err = f.after(p)
	}
	if err != nil {
		l.failed++
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", err)
		return
	}
	l.events += n
	if p != nil {
		l.tracedLats = append(l.tracedLats, lat)
	} else {
		l.lats = append(l.lats, lat)
	}
}

func run(o options) (result, map[string]any, error) {
	newWorkload, ok := workloads[o.workload]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	epoch := time.Now()
	l := &loop{}
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if l.w != nil {
			if err := l.w.close(); err != nil {
				return result{}, nil, err
			}
		}
		t0 := time.Now()
		w, err := newWorkload(o.seed)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		a, f := w.warmup(rep, l.w)
		l.w = w
		l.attempted += a
		l.failed += f
		setups = append(setups, time.Since(t0).Seconds())
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	var p *probe
	var fold *folder
	if o.trace {
		p, fold = newProbe(epoch), newFolder()
		for traced := false; time.Now().Before(deadline); traced = !traced {
			if err := l.phase(traced, p, fold); err != nil {
				l.w.close()
				return result{}, nil, err
			}
		}
	} else {
		for time.Now().Before(deadline) {
			l.step(nil)
		}
	}
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	if err := l.w.close(); err != nil {
		return result{}, nil, err
	}

	done := float64(len(l.lats) + len(l.tracedLats))
	res := result{
		Correct:   l.failed == 0 && done > 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics:   make(map[string]metric),
	}
	details := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"host": fingerprint(), "setup_s": setups, "ops": len(l.lats), "traced_ops": len(l.tracedLats),
	}
	if p90, ok := percentile(l.lats, 90); ok {
		details["op_p90_ms"] = p90
	}
	if d, ok := l.w.(detailer); ok {
		for k, v := range d.details() {
			details[k] = v
		}
	}
	if o.trace {
		for name, v := range fold.shares() {
			res.Metrics[name] = metric{v, "%"}
		}
		for name, v := range p.counters() {
			res.Metrics[name] = metric{v, counterUnits[name]}
		}
		overhead := 0.0
		if u, t := median(l.lats), median(l.tracedLats); u > 0 && t > 0 {
			overhead = 100 * (t/u - 1)
		}
		res.Metrics["trace_overhead_pct"] = metric{overhead, "%"}
		path := filepath.Join(".bench_build", "perfbench", "spans",
			fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := p.writeSpans(path); err != nil {
			return result{}, nil, err
		}
		details["spans"] = path
		return res, details, nil
	}
	allocMB := 0.0
	if done > 0 {
		allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / done
	}
	for name, v := range map[string]float64{
		"setup_s":          median(setups),
		"op_p50_ms":        median(l.lats),
		"ops_per_s":        done / elapsed,
		"sim_events_per_s": float64(l.events) / elapsed,
		"alloc_mb_per_op":  allocMB,
		"max_rss_mb":       maxRSSMB(),
	} {
		res.Metrics[name] = metric{v, endToEndUnits[name]}
	}
	return res, details, nil
}

// phase runs ops for at least tracePhase, profiled and probed when traced.
func (l *loop) phase(traced bool, p *probe, fold *folder) error {
	var buf bytes.Buffer
	var gc0, gc1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&gc0)
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return err
		}
	}
	end := time.Now().Add(tracePhase)
	for first := true; first || time.Now().Before(end); first = false {
		if traced {
			l.step(p)
		} else {
			l.step(nil)
		}
	}
	if !traced {
		return nil
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&gc1)
	p.add("gc_cycles", float64(gc1.NumGC-gc0.NumGC))
	return fold.add(buf.Bytes())
}

// endToEndUnits are the end-to-end metrics of an untraced run.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"op_p50_ms":        "ms",
	"ops_per_s":        "1/s",
	"sim_events_per_s": "1/s",
	"alloc_mb_per_op":  "MB",
	"max_rss_mb":       "MB",
}

// counterUnits are the per-layer counters of a traced run (see
// probe.counters). Times in simulated seconds say so: for a seed they are
// exact, unlike host times.
var counterUnits = map[string]string{
	"vm.major_faults":          "count",
	"vm.minor_faults":          "count",
	"vm.pages_in":              "count",
	"vm.pages_out":             "count",
	"vm.bg_useful_ratio":       "ratio",
	"vm.fault_stall_s":         "sim_s",
	"sim.events":               "count",
	"gang.switches":            "count",
	"gang.switch_s":            "sim_s",
	"mpi.barrier_s":            "sim_s",
	"disk.seeks":               "count",
	"disk.pages_per_seek":      "pages/seek",
	"disk.busy_s":              "sim_s",
	"obs.events_per_job":       "events/job",
	"store.bytes_per_event":    "B/event",
	"store.scan_ms":            "ms",
	"store.read_kb_per_query":  "KB",
	"store.events_per_query":   "events/query",
	"queue.wait_ms":            "ms",
	"queue.attempts_per_job":   "attempts/job",
	"serve.submit_ms":          "ms",
	"serve.run_ms":             "ms",
	"serve.result_ms":          "ms",
	"serve.result_kb":          "KB",
	"runtime.gc_cycles_per_op": "cycles/op",
}
