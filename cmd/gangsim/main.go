// Command gangsim runs one gang-scheduling experiment — two instances of a
// chosen NPB2-like workload under a chosen paging policy — and prints the
// resulting completion times and paging statistics.
//
// Usage:
//
//	gangsim -app LU -class B -ranks 1 -policy so/ao/ai/bg [-batch] \
//	        [-quantum 5m] [-seed 1] [-compare] [-json] \
//	        [-events run.jsonl] [-store traces/] [-metrics run.prom] \
//	        [-faults 'crash=n1@12m,downtime=2m;diskerr=0.001']
//
// With -compare, it also runs the batch baseline and the original policy
// and reports switching overhead and paging reduction. The baseline runs
// are independent simulations and fan out across -parallel worker
// goroutines (default: one per CPU); results are deterministic at any
// parallelism level.
//
// Fault injection: -faults takes a deterministic fault plan as
// semicolon-separated clauses — crash=n<ID>@<when>[,downtime=<dur>]
// (repeatable), diskerr=<rate>, diskslow=<rate>[@<latency>] and
// slow=n<ID>x<factor> (straggler, repeatable). The same seed and plan
// reproduce the exact same fault sequence; -compare baselines run
// without faults.
//
// Observability: -events streams every structured simulation event to a
// JSONL file (replayable with pagetrace -replay), -store appends the same
// stream to an indexed binary trace store (~10x smaller; query or export it
// with the store tool, replay it with pagetrace -replay), -metrics writes
// the final metric values in the Prometheus text exposition format, -trace-out
// exports the run's causal spans as Chrome trace_event JSON (loadable in
// Perfetto or chrome://tracing), -attrib decomposes each job's wall time
// into {compute, barrier, fault, switch, queue, down}, and -http serves the
// live run observer (/metrics, /events, /progress) while the simulation is
// in flight (-http-linger keeps it up afterwards). -json emits the run
// result (or the comparison, under -compare) as JSON on stdout instead of
// the human-readable report. -cpuprofile / -memprofile capture pprof
// profiles of the simulator itself.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	gangsched "repro"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/drain"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/store"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gangsim: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() (err error) {
	app := flag.String("app", "LU", "benchmark: LU, SP, CG, IS or MG")
	class := flag.String("class", "B", "NPB data class (A, B or C)")
	ranks := flag.Int("ranks", 1, "machines / ranks per job")
	policy := flag.String("policy", "so/ao/ai/bg", "paging policy combination (orig, ai, so, so/ao, so/ao/bg, so/ao/ai/bg)")
	batch := flag.Bool("batch", false, "run the jobs back to back instead of gang-scheduled")
	compare := flag.Bool("compare", false, "also run batch and orig, report overhead and reduction")
	quantum := flag.Duration("quantum", 5*time.Minute, "gang time quantum")
	seed := flag.Int64("seed", 1, "simulation seed")
	showTrace := flag.Bool("trace", false, "print a coarse page-in activity chart for node 0")
	configPath := flag.String("config", "", "run a custom experiment from a JSON spec file instead of -app/-class/-ranks")
	ganttPath := flag.String("gantt", "", "write the gang schedule timeline as an SVG to this file")
	jsonOut := flag.Bool("json", false, "emit the result (or comparison) as JSON on stdout")
	faultsPlan := flag.String("faults", "", "inject a deterministic fault plan, e.g. 'crash=n1@12m,downtime=2m;diskerr=0.001;slow=n0x1.5'")
	eventsPath := flag.String("events", "", "write the structured event stream as JSONL to this file")
	storeDir := flag.String("store", "", "append the event stream to the indexed binary trace store rooted at this directory")
	storeRun := flag.String("store-run", "", "run name inside the -store directory (default: policy and seed)")
	metricsPath := flag.String("metrics", "", "write final metrics in Prometheus text format to this file")
	traceOut := flag.String("trace-out", "", "write the run's causal spans as Chrome trace_event JSON to this file (load in Perfetto)")
	attrib := flag.Bool("attrib", false, "decompose each job's wall time into {compute, barrier, fault, switch, queue, down}")
	httpAddr := flag.String("http", "", "serve the live run observer (/metrics, /events, /progress) on this address, e.g. :8080")
	httpLinger := flag.Duration("http-linger", 0, "keep the -http observer serving this long after the run ends")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	parallel := flag.Int("parallel", 0, "worker goroutines for -compare baseline runs (0 = one per CPU, 1 = serial)")
	auditOn := flag.Bool("audit", false, "cross-check simulation invariants (conservation laws) during the run, failing fast on the first violation")
	auditEvery := flag.Int("audit-every", 0, "audit sweep interval in engine events (0 = every event; implies -audit when positive)")
	flag.Parse()

	if *cpuProfile != "" {
		f, ferr := os.Create(*cpuProfile)
		if ferr != nil {
			return ferr
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			f.Close()
			return perr
		}
		// The profile streams until StopCPUProfile, so the close (and its
		// error) must wait for function exit; a failed close means a
		// truncated profile, which deserves a report, not a shrug.
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("writing %s: %w", *cpuProfile, cerr)
			}
		}()
	}

	var spec gangsched.Spec
	header := ""
	if *configPath != "" {
		var err error
		if spec, err = gangsched.LoadSpec(*configPath); err != nil {
			return err
		}
		header = fmt.Sprintf("custom experiment %s", *configPath)
	} else {
		m, err := workload.Get(workload.App(*app), workload.Class(*class), *ranks)
		if err != nil {
			return err
		}
		spec = specForPair(m, *policy, *batch, *quantum, *seed)
		header = fmt.Sprintf("%s class %s on %d machine(s)", m.App, m.Class, m.Ranks)
	}
	if *showTrace {
		spec.RecordTraces = true
	}
	if *faultsPlan != "" {
		f, err := gangsched.ParseFaults(*faultsPlan)
		if err != nil {
			return err
		}
		spec.Faults = f
	}
	if *auditOn || *auditEvery > 0 {
		spec.Audit = &gangsched.AuditSpec{Every: *auditEvery}
	}

	// Observability plumbing: a JSONL sink for -events, a binary store sink
	// for -store, a registry for -metrics (or the -http scrape endpoint),
	// the span tracer for -trace-out, rank ledgers for -attrib and the
	// /progress endpoint. The policy run carries it; -compare baselines run
	// bare.
	var jsonl *obs.JSONLSink
	var storeSink *store.Sink
	var eventStore *store.Store
	runName := *storeRun
	if *eventsPath != "" || *storeDir != "" || *metricsPath != "" || *traceOut != "" || *attrib || *httpAddr != "" {
		o := &obs.Options{
			Metrics: *metricsPath != "" || *httpAddr != "",
			Trace:   *traceOut != "",
			Ledger:  *attrib || *httpAddr != "",
		}
		if *eventsPath != "" {
			f, err := os.Create(*eventsPath)
			if err != nil {
				return err
			}
			jsonl = obs.NewJSONL(f)
			o.Sinks = append(o.Sinks, jsonl)
		}
		if *storeDir != "" {
			if runName == "" {
				runName = fmt.Sprintf("%s-seed%d", spec.Policy, spec.Seed)
			}
			var err error
			if eventStore, err = store.Open(*storeDir); err != nil {
				return err
			}
			// Re-running the same run name replaces its history, matching
			// the truncate-on-create semantics of -events.
			if err := eventStore.Reset(runName); err != nil {
				return err
			}
			w, err := eventStore.Writer(runName, store.WriterOptions{})
			if err != nil {
				return err
			}
			storeSink = store.NewSink(w)
			o.Sinks = append(o.Sinks, storeSink)
		}
		spec.Observe = o
	}
	if *httpAddr != "" {
		spec.HTTP = *httpAddr
		spec.OnHTTP = func(addr string) {
			log.Printf("live observer on http://%s (/metrics /events /progress)", addr)
		}
	}

	// SIGINT/SIGTERM cancel the run at the next simulation step; the
	// partial result still flows through every sink below (events file,
	// metrics file, trace export), so an interrupted run leaves complete,
	// parseable artifacts rather than torn ones. A second signal forces
	// exit.
	ctx, stopSignals := drain.Context(context.Background())
	defer stopSignals()

	h, err := gangsched.RunDetailedContext(ctx, spec)
	interrupted := h != nil && err != nil && ctx.Err() != nil
	if interrupted {
		log.Printf("interrupted: flushing partial results")
		err = nil
	}
	if jsonl != nil {
		if cerr := jsonl.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("writing %s: %w", *eventsPath, cerr)
		}
	}
	if storeSink != nil {
		if cerr := storeSink.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("writing store %s: %w", *storeDir, cerr)
		}
	}
	if err != nil {
		return err
	}
	if eventStore != nil {
		if st, serr := eventStore.Stat(runName); serr == nil {
			log.Printf("store: run %q: %d events in %d segment(s), %.1f bytes/event",
				runName, st.Events, st.Segments, st.BytesPerEvent())
		}
	}
	if h.Observer != nil {
		// Serve the post-run state for the linger window (cut short by a
		// signal), then shut down.
		if *httpLinger > 0 && !interrupted {
			log.Printf("run complete; observer serving final state for %v", *httpLinger)
			select {
			case <-time.After(*httpLinger):
			case <-ctx.Done():
				log.Printf("interrupted: closing observer")
			}
		}
		if cerr := h.Observer.Close(); cerr != nil {
			return fmt.Errorf("closing observer: %w", cerr)
		}
	}
	if *metricsPath != "" {
		if err := writeMetrics(*metricsPath, h.Metrics); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, h.Spans()); err != nil {
			return err
		}
		log.Printf("%d spans written to %s", len(h.Spans()), *traceOut)
	}

	var cmp *gangsched.Comparison
	if *compare && !spec.Batch && !interrupted {
		if cmp, err = compareAgainst(spec, h.Result, *parallel); err != nil {
			return err
		}
	}

	if *jsonOut {
		if err := emitJSON(h.Result, cmp); err != nil {
			return err
		}
	} else {
		if interrupted {
			header += " [interrupted]"
		}
		printRun(header, h.Result)
		if cmp != nil {
			printComparison(h.Result.Policy, *cmp)
		}
	}
	if *ganttPath != "" {
		if err := writeGantt(*ganttPath, h.Result); err != nil {
			return err
		}
		log.Printf("schedule timeline written to %s", *ganttPath)
	}
	if *showTrace && len(h.Traces) > 0 && h.Traces[0] != nil && !*jsonOut {
		fmt.Println(h.Traces[0].Series("pagein_kb").ASCII(30, 60))
		fmt.Println(h.Traces[0].Series("pageout_kb").ASCII(30, 60))
	}

	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			return ferr
		}
		runtime.GC()
		werr := pprof.WriteHeapProfile(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing %s: %w", *memProfile, werr)
		}
	}
	return nil
}

// specForPair mirrors the paper's experimental setup (internal/expt): two
// instances of the model time-share a cluster of m.Ranks nodes with 1 GB
// each, memory locked down to the model's available size, working-set hints
// passed through the kernel API. SP on four machines gets a 7-minute
// quantum when the configured one is the default 5 (§4.2).
func specForPair(m workload.Model, policy string, batch bool, quantum time.Duration, seed int64) gangsched.Spec {
	q := quantum
	if m.App == workload.SP && m.Ranks == 4 && q == 5*time.Minute {
		q = 7 * time.Minute
	}
	beh := m.Behavior()
	return gangsched.Spec{
		Seed:     seed,
		Nodes:    m.Ranks,
		MemoryMB: 1024,
		LockedMB: 1024 - m.AvailMB,
		Policy:   policy,
		Batch:    batch,
		Quantum:  q,
		Jobs: []gangsched.JobSpec{
			{Name: fmt.Sprintf("%s-1", m.App), Workload: beh, HintWorkingSet: true},
			{Name: fmt.Sprintf("%s-2", m.App), Workload: beh, HintWorkingSet: true},
		},
	}
}

// compareAgainst runs the batch and original-policy baselines (bare, no
// observability) concurrently across parallel workers and assembles the
// paper's comparison metrics around the already-completed policy run.
func compareAgainst(spec gangsched.Spec, policyRes gangsched.Result, parallel int) (*gangsched.Comparison, error) {
	b := spec
	b.Batch = true
	b.Policy = "orig"
	b.Observe = nil
	specs := []gangsched.Spec{b}
	if policyRes.Policy != "orig" {
		o := spec
		o.Policy = "orig"
		o.Observe = nil
		specs = append(specs, o)
	}
	results, err := gangsched.RunAll(context.Background(), parallel, specs)
	if err != nil {
		return nil, fmt.Errorf("baseline runs: %w", err)
	}
	batchRes := results[0]
	origRes := policyRes
	if len(results) > 1 {
		origRes = results[1]
	}
	c := &gangsched.Comparison{Batch: batchRes, Orig: origRes, Policy: policyRes}
	c.SwitchingOverheadOrig = metrics.SwitchingOverhead(origRes.Makespan, batchRes.Makespan)
	c.SwitchingOverheadPolicy = metrics.SwitchingOverhead(policyRes.Makespan, batchRes.Makespan)
	c.PagingReduction = metrics.PagingReduction(origRes.Makespan, policyRes.Makespan, batchRes.Makespan)
	return c, nil
}

// emitJSON writes the machine-readable result to stdout: the comparison
// when one was computed, the bare run result otherwise.
func emitJSON(res gangsched.Result, cmp *gangsched.Comparison) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if cmp != nil {
		return enc.Encode(cmp)
	}
	return enc.Encode(res)
}

// writeTrace renders the run's spans to path as Chrome trace_event JSON.
func writeTrace(path string, spans []obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gangsched.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// writeMetrics renders the registry to path in Prometheus text format.
func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteProm(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// writeGantt renders the run's schedule timeline as an SVG file.
func writeGantt(path string, res metrics.RunResult) error {
	names := make([]string, len(res.Timeline))
	starts := make([]float64, len(res.Timeline))
	ends := make([]float64, len(res.Timeline))
	for i, iv := range res.Timeline {
		names[i] = iv.Job
		starts[i] = iv.Start.Seconds()
		ends[i] = iv.End.Seconds()
	}
	svg := plot.Gantt(plot.GanttFromIntervals(names, starts, ends), plot.GanttOptions{
		Title:  "Gang schedule timeline (" + res.Policy + ")",
		XLabel: "time (s)",
	})
	return os.WriteFile(path, []byte(svg), 0o644)
}

func printRun(header string, res metrics.RunResult) {
	fmt.Printf("%s, policy %s (%s)\n", header, res.Policy, res.Mode)
	for _, j := range res.Jobs {
		fmt.Printf("  %-8s finished at %8.0fs\n", j.Name, j.FinishedAt.Seconds())
		if a := j.Attribution; a != nil {
			fmt.Printf("           compute %.0fs | barrier %.0fs | fault %.0fs | switch %.0fs | queue %.0fs | down %.0fs\n",
				a.Compute.Seconds(), a.Barrier.Seconds(), a.Fault.Seconds(),
				a.Switch.Seconds(), a.Queue.Seconds(), a.Down.Seconds())
		}
	}
	fmt.Printf("  makespan %.0fs, %d switches\n", res.Makespan.Seconds(), res.Switches)
	for i, n := range res.Nodes {
		fmt.Printf("  node %d: in %dp out %dp bg %dp majflt %d stall %.0fs diskbusy %.0fs seeks %d\n",
			i, n.PagesIn, n.PagesOut, n.BGPagesOut, n.MajorFaults,
			n.FaultStall.Seconds(), n.DiskBusy.Seconds(), n.DiskSeeks)
	}
	if f := res.Faults; f != (metrics.FaultTally{}) {
		fmt.Printf("  faults: %d crashes (%d restarts, %d requeues), %d disk errors (%d retries, %d forced), %d transfers dropped\n",
			f.Crashes, f.Restarts, f.Requeues, f.DiskErrors, f.DiskRetries, f.DiskForced, f.DroppedIO)
	}
}

func printComparison(policy string, c gangsched.Comparison) {
	fmt.Printf("\nbatch    %8.0fs\n", c.Batch.Makespan.Seconds())
	fmt.Printf("orig     %8.0fs  overhead %s\n", c.Orig.Makespan.Seconds(),
		metrics.Pct(c.SwitchingOverheadOrig))
	if policy != "orig" {
		fmt.Printf("%-8s %8.0fs  overhead %s  reduction %s\n", policy,
			c.Policy.Makespan.Seconds(),
			metrics.Pct(c.SwitchingOverheadPolicy),
			metrics.Pct(c.PagingReduction))
	}
}
