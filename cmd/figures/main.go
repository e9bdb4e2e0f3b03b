// Command figures regenerates every table and figure of the paper's
// evaluation section from the simulator and prints them as text tables.
//
// Usage:
//
//	figures [-fig 6|7|8|9|all] [-seed N] [-quantum 5m] [-parallel N]
//
// Independent simulation runs within each figure fan out across -parallel
// worker goroutines (default: one per CPU). Every run owns its own seeded
// engine and results are assembled in submission order, so the printed
// tables are byte-identical at any parallelism level; only the wall-clock
// timing reported on stderr changes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/expt"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	fig := flag.String("fig", "all", "which figure to regenerate: 6, 7, 8, 9, attribution, ablations or all")
	seed := flag.Int64("seed", 1, "simulation seed")
	quantum := flag.Duration("quantum", 5*time.Minute, "gang scheduling quantum")
	md := flag.String("md", "", "write the full paper-vs-measured markdown report to this file ('-' for stdout)")
	svg := flag.String("svg", "", "also render every figure as SVG files into this directory")
	parallel := flag.Int("parallel", 0, "worker goroutines for independent runs (0 = one per CPU, 1 = serial)")
	flag.Parse()

	cfg := expt.DefaultConfig()
	cfg.Seed = *seed
	cfg.Quantum = sim.DurationOf(*quantum)
	cfg.Parallel = *parallel

	if *svg != "" {
		if err := expt.RenderSVGs(cfg, *svg); err != nil {
			log.Fatal(err)
		}
		log.Printf("SVG figures written to %s", *svg)
		if *md == "" && *fig == "all" {
			return
		}
	}

	if *md != "" {
		out := os.Stdout
		var f *os.File
		if *md != "-" {
			var err error
			if f, err = os.Create(*md); err != nil {
				log.Fatal(err)
			}
			out = f
		}
		if err := expt.WriteMarkdownReport(cfg, out); err != nil {
			log.Fatal(err)
		}
		if f != nil {
			if err := f.Close(); err != nil {
				log.Fatalf("closing %s: %v", *md, err)
			}
		}
		return
	}

	// Per-figure wall-clock timing goes to stderr so that stdout stays
	// byte-identical across -parallel settings.
	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		start := time.Now()
		if err := f(); err != nil {
			log.Fatalf("figure %s: %v", name, err)
		}
		log.Printf("figure %s: %.2fs wall clock", name, time.Since(start).Seconds())
	}

	run("6", func() error {
		rows, err := expt.Figure6(cfg, 50*sim.Minute)
		if err != nil {
			return err
		}
		fmt.Println(expt.FormatTraceSummary(rows))
		return nil
	})
	run("7", func() error {
		rows, err := expt.Figure7(cfg)
		if err != nil {
			return err
		}
		fmt.Println(expt.FormatAppTable("Figure 7 — serial class B benchmarks (1 machine)", rows))
		return nil
	})
	run("8", func() error {
		for _, ranks := range []int{2, 4} {
			rows, err := expt.Figure8(cfg, ranks)
			if err != nil {
				return err
			}
			fmt.Println(expt.FormatAppTable(
				fmt.Sprintf("Figure 8 — parallel benchmarks (%d machines)", ranks), rows))
		}
		return nil
	})
	run("9", func() error {
		rows, err := expt.Figure9(cfg)
		if err != nil {
			return err
		}
		fmt.Println(expt.FormatPolicyTable("Figure 9 — LU policy ablation", rows))
		return nil
	})
	run("attribution", func() error {
		rows, err := expt.AttributionStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Println(expt.FormatAttributionTable(
			"Attribution — where each job's wall time goes (serial LU class B)", rows))
		return nil
	})
	run("ablations", func() error {
		return runAblations(cfg, os.Stdout)
	})
}
