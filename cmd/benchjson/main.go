// Command benchjson converts `go test -bench -benchmem` output read from
// stdin into a machine-readable JSON array. Each benchmark line becomes
// one record with the benchmark name, iterations and the standard
// per-operation measurements; custom b.ReportMetric units are collected
// under "metrics". For every Benchmark<X> / Benchmark<X>Audited pair a
// derived <X>AuditOverhead record prices the invariant auditor (ns/op
// difference, percentage under metrics.pct).
//
// Usage:
//
//	go test -run NONE -bench BenchmarkFig -benchmem . | benchjson -o BENCH_sim.json
//
// With -compare FILE the tool is a regression gate instead of a writer: the
// benchmarks on stdin are compared by name against the records in FILE and
// the exit status is non-zero when any ns/op regresses by more than
// -threshold percent (derived *AuditOverhead records and benchmarks absent
// from the baseline are skipped). `make check` runs it against the committed
// BENCH_sim.json so queue- or figure-level slowdowns fail the gate. When the
// BenchmarkPolicyRun/BenchmarkPolicyRunAudited pair appears on stdin the gate
// also enforces the always-on audit budget (Every=1 differential auditing
// must cost <=2x the unaudited run); when BenchmarkStoreEncode appears it
// enforces the trace store's compression floor (binary bytes/event must be
// <=1/5 of the same events' JSONL bytes/event) and, against the baseline,
// gates bytes/event growth past -threshold percent alongside ns/op. Records
// written with -o carry the measuring host's CPU count under "cpus".
//
// With -overhead NEW/BASE the tool gates one stdin benchmark against
// another from the same stream: it fails when NEW's ns/op exceeds BASE's by
// more than -threshold percent. `make check` uses it to price the span
// tracer (BenchmarkRunTraced vs BenchmarkRunObsEnabled, ≤10%).
//
// Non-benchmark lines (the goos/pkg header, PASS, ok) pass through to
// stderr so the surrounding make target stays readable.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark line in machine-readable form. Cpus records the
// measuring host's CPU count, so a wall-clock record names the hardware it
// was taken on.
type Result struct {
	Name     string             `json:"name"`
	Iters    int64              `json:"iters"`
	NsPerOp  float64            `json:"ns_op"`
	BytesOp  float64            `json:"bytes_op,omitempty"`
	AllocsOp float64            `json:"allocs_op,omitempty"`
	Cpus     int                `json:"cpus,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("o", "-", "output file ('-' for stdout)")
	compare := flag.String("compare", "", "baseline BENCH_sim.json: gate mode — fail when an stdin benchmark's ns/op regresses past -threshold percent (writes nothing)")
	overhead := flag.String("overhead", "", "NEW/BASE benchmark names, both from stdin: gate mode — fail when NEW's ns/op exceeds BASE's by more than -threshold percent (writes nothing)")
	threshold := flag.Float64("threshold", 25, "ns/op regression tolerance in percent for -compare and -overhead")
	flag.Parse()

	var results []Result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		r, ok := parseLine(line)
		if !ok {
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		log.Fatal("no benchmark lines found on stdin")
	}
	if *compare != "" {
		if err := compareAgainst(*compare, results, *threshold); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *overhead != "" {
		if err := gateOverhead(*overhead, results, *threshold); err != nil {
			log.Fatal(err)
		}
		return
	}
	results = append(results, deriveOverheads(results)...)
	for i := range results {
		results[i].Cpus = runtime.NumCPU()
	}

	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("%d benchmark(s) written to %s", len(results), *out)
}

// compareAgainst loads the baseline records from path and checks every stdin
// benchmark that also appears there, reporting each comparison and returning
// an error when any ns/op regressed by more than threshold percent. Derived
// *AuditOverhead rows are skipped (differences of differences are too noisy
// to gate on), as are benchmarks the baseline does not know yet.
func compareAgainst(path string, results []Result, threshold float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var baseline []Result
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	byName := make(map[string]Result, len(baseline))
	for _, r := range baseline {
		byName[r.Name] = r
	}
	// Per-name minimum across stdin duplicates (`go test -count N`): the
	// fastest observation bounds the true cost from above on a quiet
	// machine, so repeating a noisy benchmark tightens the gate instead of
	// multiplying its chances to flake.
	best := make(map[string]Result, len(results))
	var order []string
	for _, r := range results {
		if strings.HasSuffix(r.Name, "AuditOverhead") || r.NsPerOp <= 0 {
			continue
		}
		if prev, ok := best[r.Name]; !ok {
			best[r.Name] = r
			order = append(order, r.Name)
		} else if r.NsPerOp < prev.NsPerOp {
			best[r.Name] = r
		}
	}
	compared := 0
	var regressions []string
	for _, name := range order {
		r := best[name]
		base, ok := byName[r.Name]
		if !ok || base.NsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %s: not in baseline, skipped\n", r.Name)
			continue
		}
		compared++
		pct := 100 * (r.NsPerOp - base.NsPerOp) / base.NsPerOp
		fmt.Fprintf(os.Stderr, "benchjson: %-40s %14.0f -> %14.0f ns/op (%+.1f%%)\n",
			r.Name, base.NsPerOp, r.NsPerOp, pct)
		if pct > threshold {
			regressions = append(regressions,
				fmt.Sprintf("%s regressed %.1f%% (%.0f -> %.0f ns/op, threshold %.0f%%)",
					r.Name, pct, base.NsPerOp, r.NsPerOp, threshold))
		}
		// Size regressions are as real as time regressions for the trace
		// store: when both sides report bytes/event, gate its growth too.
		bOld, bNew := base.Metrics[bytesPerEventMetric], r.Metrics[bytesPerEventMetric]
		if bOld > 0 && bNew > 0 {
			bpct := 100 * (bNew - bOld) / bOld
			fmt.Fprintf(os.Stderr, "benchjson: %-40s %14.2f -> %14.2f %s (%+.1f%%)\n",
				r.Name, bOld, bNew, bytesPerEventMetric, bpct)
			if bpct > threshold {
				regressions = append(regressions,
					fmt.Sprintf("%s grew %.1f%% in %s (%.2f -> %.2f, threshold %.0f%%)",
						r.Name, bpct, bytesPerEventMetric, bOld, bNew, threshold))
			}
		}
	}
	if compared == 0 {
		return fmt.Errorf("no stdin benchmark matched a baseline record in %s", path)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("ns/op regression past threshold:\n  %s", strings.Join(regressions, "\n  "))
	}
	if err := gateAuditOverhead(results); err != nil {
		return err
	}
	if err := gateStoreCompression(results); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) within %.0f%% of %s\n", compared, threshold, path)
	return nil
}

// Always-on audit budget: an Every=1 differentially audited policy run may
// cost at most this factor over the unaudited run. A higher ratio means the
// O(delta) checks (or the periodic full-sweep cross-check) grew past what
// "always-on" can justify.
const (
	auditPlainBench   = "BenchmarkPolicyRun"
	auditAuditedBench = "BenchmarkPolicyRunAudited"
	auditOverheadCap  = 2.0
)

// gateAuditOverhead enforces the always-on audit budget when both halves of
// the Every=1 pair appear on stdin. Both runs are single-threaded on the
// same host, and the per-name minimum keeps the ratio robust under
// `-count N`.
func gateAuditOverhead(results []Result) error {
	minNs := func(name string) float64 {
		best := -1.0
		for _, r := range results {
			if r.Name == name && r.NsPerOp > 0 && (best < 0 || r.NsPerOp < best) {
				best = r.NsPerOp
			}
		}
		return best
	}
	plain, audited := minNs(auditPlainBench), minNs(auditAuditedBench)
	if plain < 0 || audited < 0 {
		return nil // pair not on stdin; nothing to judge
	}
	ratio := audited / plain
	fmt.Fprintf(os.Stderr, "benchjson: audit overhead %s/%s = %.2fx (cap %.1fx)\n",
		auditAuditedBench, auditPlainBench, ratio, auditOverheadCap)
	if ratio > auditOverheadCap {
		return fmt.Errorf("audit overhead %.2fx exceeds %.1fx cap (%s %.0f ns/op vs %s %.0f ns/op)",
			ratio, auditOverheadCap, auditAuditedBench, audited, auditPlainBench, plain)
	}
	return nil
}

// Trace-store compression floor: the binary encoding must keep one event
// at no more than a fifth of its JSONL rendering on the synthetic store
// workload. BenchmarkStoreEncode reports both sides as custom metrics, so
// the gate is a pure ratio of the same run's numbers — no baseline drift.
const (
	storeEncodeBench     = "BenchmarkStoreEncode"
	bytesPerEventMetric  = "bytes/event"
	jsonlBytesPerEvent   = "jsonl-bytes/event"
	storeCompressionMinX = 5.0
)

// gateStoreCompression enforces the ≥5x bytes-per-event floor whenever
// BenchmarkStoreEncode appears on stdin with both size metrics. Metric
// values are identical across -count repeats (the workload is fixed), so
// the first occurrence decides.
func gateStoreCompression(results []Result) error {
	for _, r := range results {
		if r.Name != storeEncodeBench {
			continue
		}
		bin, jl := r.Metrics[bytesPerEventMetric], r.Metrics[jsonlBytesPerEvent]
		if bin <= 0 || jl <= 0 {
			continue
		}
		ratio := jl / bin
		fmt.Fprintf(os.Stderr, "benchjson: store compression %.2f vs %.2f JSONL bytes/event = %.2fx (floor %.1fx)\n",
			bin, jl, ratio, storeCompressionMinX)
		if ratio < storeCompressionMinX {
			return fmt.Errorf("store compression %.2fx below %.1fx floor (%.2f binary vs %.2f JSONL bytes/event)",
				ratio, storeCompressionMinX, bin, jl)
		}
		return nil
	}
	return nil // benchmark not on stdin; nothing to judge
}

// gateOverhead prices one stdin benchmark against another: pair names them
// as NEW/BASE (split at the first slash, so neither may be a sub-benchmark)
// and the gate fails when NEW's ns/op exceeds BASE's by more than threshold
// percent. Both must appear on stdin — comparing across runs is -compare's
// job. With `go test -count N` each name appears N times; the gate takes
// the per-name minimum, the standard noise-robust estimate (the fastest
// observation bounds the true cost on a quiet machine from above).
func gateOverhead(pair string, results []Result, threshold float64) error {
	newName, baseName, ok := strings.Cut(pair, "/")
	if !ok || newName == "" || baseName == "" {
		return fmt.Errorf("-overhead wants NEW/BASE benchmark names, got %q", pair)
	}
	minNs := func(name string) (float64, error) {
		best := -1.0
		for _, r := range results {
			if r.Name != name || r.NsPerOp <= 0 {
				continue
			}
			if best < 0 || r.NsPerOp < best {
				best = r.NsPerOp
			}
		}
		if best < 0 {
			return 0, fmt.Errorf("benchmark %s not found on stdin", name)
		}
		return best, nil
	}
	newNs, err := minNs(newName)
	if err != nil {
		return err
	}
	baseNs, err := minNs(baseName)
	if err != nil {
		return err
	}
	pct := 100 * (newNs - baseNs) / baseNs
	fmt.Fprintf(os.Stderr, "benchjson: %s %14.0f ns/op vs %s %14.0f ns/op: %+.1f%% (threshold %.0f%%)\n",
		newName, newNs, baseName, baseNs, pct, threshold)
	if pct > threshold {
		return fmt.Errorf("%s overhead %.1f%% over %s exceeds threshold %.0f%%",
			newName, pct, baseName, threshold)
	}
	return nil
}

// deriveOverheads synthesises a `<X>AuditOverhead` record for every
// `Benchmark<X>` / `Benchmark<X>Audited` pair on the input: ns_op is the
// absolute cost of auditing one run and metrics.pct the relative slowdown.
// The derived rows keep auditor pricing in BENCH_sim.json without anyone
// diffing benchmark lines by hand.
func deriveOverheads(results []Result) []Result {
	byName := make(map[string]Result, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	var derived []Result
	for _, r := range results {
		base, ok := byName[strings.TrimSuffix(r.Name, "Audited")]
		if !ok || !strings.HasSuffix(r.Name, "Audited") || base.NsPerOp == 0 {
			continue
		}
		derived = append(derived, Result{
			Name:    base.Name + "AuditOverhead",
			Iters:   r.Iters,
			NsPerOp: r.NsPerOp - base.NsPerOp,
			Metrics: map[string]float64{
				"pct": 100 * (r.NsPerOp - base.NsPerOp) / base.NsPerOp,
			},
		})
	}
	return derived
}

// parseLine decodes one `Benchmark<Name>[-procs] <iters> <value> <unit>...`
// line; ok is false for anything else.
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Iters: iters}
	if i := strings.LastIndex(r.Name, "-"); i > 0 {
		if _, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Name = r.Name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesOp = v
		case "allocs/op":
			r.AllocsOp = v
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}
