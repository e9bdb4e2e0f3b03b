// Command pagetrace reproduces the paper's Figure 6: paging-activity
// traces of two gang-scheduled LU class C instances on four machines under
// a chosen adaptive-paging policy, rendered as CSV (for plotting) or a
// coarse ASCII chart.
//
// Usage:
//
//	pagetrace [-policy orig|so|so/ao|so/ao/ai/bg] [-window 50m]
//	          [-node 0] [-format csv|ascii] [-seed 1]
//
// With -replay, it instead rebuilds the paging-activity trace from a
// structured event stream previously captured with gangsim, without
// re-running any simulation. The input format is auto-detected: a
// directory is an indexed binary trace store (gangsim -store; pick the
// run with -run when the store holds several), a file starting with the
// segment magic is a single binary segment, and anything else is a JSONL
// log (gangsim -events). Every path streams — replaying a store serves a
// bounded range query off the block index, never the full event set:
//
//	pagetrace -replay run.jsonl [-node 0] [-bin 1s] [-format csv|ascii]
//	pagetrace -replay traces/ [-run so/ao/ai/bg-seed1] [-node 0]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pagetrace: ")
	policy := flag.String("policy", "orig", "paging policy combination")
	window := flag.Duration("window", 50*time.Minute, "observation window (paper: first 50 minutes)")
	node := flag.Int("node", 0, "which machine's trace to print (0-3)")
	format := flag.String("format", "csv", "output format: csv or ascii")
	seed := flag.Int64("seed", 1, "simulation seed")
	replay := flag.String("replay", "", "rebuild the trace from a captured event stream (JSONL file, binary segment or store directory) instead of simulating")
	run := flag.String("run", "", "run name inside a -replay store directory (default: the store's only run)")
	bin := binFlag(sim.Second)
	flag.Var(&bin, "bin", "bin width for -replay (at least 1µs)")
	flag.Parse()

	if *replay != "" {
		if err := replayEvents(*replay, *run, *node, sim.Duration(bin), *format); err != nil {
			log.Fatal(err)
		}
		return
	}

	want, err := figure6Policy(*policy)
	if err != nil {
		log.Fatal(err)
	}
	cfg := expt.DefaultConfig()
	cfg.Seed = *seed
	r, err := expt.Figure6Trace(cfg, want, sim.DurationOf(*window))
	if err != nil {
		log.Fatal(err)
	}
	if *node < 0 || *node >= len(r.Nodes) {
		log.Fatalf("node %d out of range (cluster has %d)", *node, len(r.Nodes))
	}
	if err := render(r.Nodes[*node], *format); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# policy=%s active_seconds=%d peak=%.0fKB/s\n", r.Policy, r.ActiveSeconds, r.PeakKBps)
}

// binFlag is the -bin flag: a replay bin width of at least one simulated
// microsecond, the clock's unit. A width that rounds to zero or below fails
// as a flag error, before anything replays.
type binFlag sim.Duration

func (b *binFlag) String() string {
	return (time.Duration(*b) * time.Microsecond).String()
}

func (b *binFlag) Set(s string) error {
	d, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	if sim.DurationOf(d) <= 0 {
		return fmt.Errorf("bin width must be at least 1µs")
	}
	*b = binFlag(sim.DurationOf(d))
	return nil
}

// figure6Policy parses name and checks that it is one of Figure 6's four
// traces, before any simulation runs.
func figure6Policy(name string) (core.Features, error) {
	want, err := core.ParseFeatures(name)
	if err != nil {
		return want, err
	}
	for _, f := range expt.Figure6Policies() {
		if f == want {
			return want, nil
		}
	}
	return want, fmt.Errorf("policy %q is not one of Figure 6's traces (orig, so, so/ao, so/ao/ai/bg)", name)
}

// render prints a node's page-in and page-out series in the given format.
func render(rec *trace.Recorder, format string) error {
	switch format {
	case "csv":
		fmt.Print(rec.CSV(trace.SeriesPageInKB, trace.SeriesPageOutKB))
	case "ascii":
		fmt.Println(rec.Series(trace.SeriesPageInKB).ASCII(30, 60))
		fmt.Println(rec.Series(trace.SeriesPageOutKB).ASCII(30, 60))
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	return nil
}

// replayEvents rebuilds a node's paging-activity series from a captured
// event stream — a JSONL log, a single binary segment or a trace store
// root, auto-detected. Every path streams through the trace.Paging fold a
// simulated run uses, so even a 512-node-scale log replays without
// materializing its event set.
func replayEvents(path, run string, node int, bin sim.Duration, format string) error {
	kind, err := store.DetectPath(path)
	if err != nil {
		return err
	}
	var rep *trace.Paging
	source := path
	switch kind {
	case store.FormatStore:
		st, err := store.Open(path)
		if err != nil {
			return err
		}
		if run == "" {
			runs, err := st.Runs()
			if err != nil {
				return err
			}
			switch len(runs) {
			case 0:
				return fmt.Errorf("store %s holds no runs", path)
			case 1:
				run = runs[0]
			default:
				return fmt.Errorf("store %s holds %d runs (%s); pick one with -run",
					path, len(runs), strings.Join(runs, ", "))
			}
		}
		if rep, err = expt.ReplayTrace(st, run, node, bin); err != nil {
			return err
		}
		source = fmt.Sprintf("%s run %q", path, run)
	case store.FormatSegment:
		if rep, err = expt.ReplayTraceSegment(path, node, bin); err != nil {
			return err
		}
	default:
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		rep, err = expt.ReplayTraceJSONL(f, node, bin)
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing %s: %w", path, cerr)
		}
		if err != nil {
			return err
		}
	}
	if err := render(rep.Node(node), format); err != nil {
		return err
	}
	fmt.Printf("# replayed %d transfers for node %d from %s\n", rep.Transfers(node), node, source)
	return nil
}
