// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4) plus the ablations DESIGN.md calls out. Each benchmark iteration is
// one full deterministic experiment; the numbers the paper reports are
// exposed with b.ReportMetric so `go test -bench` output doubles as the
// reproduction record (see EXPERIMENTS.md).
package gangsched

import (
	"testing"

	"repro/internal/expt"
	"repro/internal/sim"
)

func benchConfig() expt.Config {
	cfg := expt.DefaultConfig()
	cfg.Seed = 1
	return cfg
}

// BenchmarkFig1Compaction measures the conceptual claim of Figure 1: the
// same paging work happens in far fewer active seconds (one compact burst
// per switch) under adaptive paging.
func BenchmarkFig1Compaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Figure6(benchConfig(), 30*sim.Minute)
		if err != nil {
			b.Fatal(err)
		}
		orig, adaptive := rows[0], rows[len(rows)-1]
		if orig.ActiveSeconds <= adaptive.ActiveSeconds {
			b.Fatalf("no compaction: orig %d active s vs adaptive %d",
				orig.ActiveSeconds, adaptive.ActiveSeconds)
		}
		b.ReportMetric(float64(orig.ActiveSeconds), "orig_active_s")
		b.ReportMetric(float64(adaptive.ActiveSeconds), "adaptive_active_s")
	}
}

// BenchmarkFig6Traces regenerates the four paging-activity traces of
// Figure 6 (LU class C x2 on four machines, 350 MB, 300 s quanta).
func BenchmarkFig6Traces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Figure6(benchConfig(), 50*sim.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("want 4 traces, got %d", len(rows))
		}
		b.ReportMetric(rows[0].PeakKBps, "orig_peak_kbps")
		b.ReportMetric(rows[3].PeakKBps, "adaptive_peak_kbps")
	}
}

// BenchmarkFig7Serial regenerates Figure 7 a-c: the five serial class B
// benchmarks against batch and the original policy.
func BenchmarkFig7Serial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Figure7(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(100*r.Reduction, string(r.App)+"_reduction_pct")
		}
	}
}

// BenchmarkFig8Parallel2 regenerates Figure 8 a-c (two machines).
func BenchmarkFig8Parallel2(b *testing.B) {
	benchFig8(b, 2)
}

// BenchmarkFig8Parallel4 regenerates Figure 8 d-f (four machines).
func BenchmarkFig8Parallel4(b *testing.B) {
	benchFig8(b, 4)
}

func benchFig8(b *testing.B, ranks int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := expt.Figure8(benchConfig(), ranks)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(100*r.Reduction, string(r.App)+"_reduction_pct")
		}
	}
}

// BenchmarkFig9PolicyAblation regenerates Figure 9: LU under every
// mechanism combination on the serial, 2- and 4-machine setups.
func BenchmarkFig9PolicyAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Figure9(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows["serial"] {
			if r.Policy == "so/ao/ai/bg" {
				b.ReportMetric(100*r.Reduction, "serial_full_reduction_pct")
			}
		}
	}
}

// BenchmarkFigAttribution regenerates the attribution figure: serial LU
// class B under every policy combination with rank ledgers on, reporting
// where the reclaimed time was going (the switch bucket orig vs adaptive).
func BenchmarkFigAttribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.AttributionStudy(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var origSwitch, adaptiveSwitch float64
		for _, r := range rows {
			for _, j := range r.Jobs {
				switch r.Policy {
				case "orig":
					origSwitch += j.Attr.Switch.Seconds()
				case "so/ao/ai/bg":
					adaptiveSwitch += j.Attr.Switch.Seconds()
				}
			}
		}
		if adaptiveSwitch >= origSwitch {
			b.Fatalf("switch time did not shrink: orig %.0fs vs adaptive %.0fs",
				origSwitch, adaptiveSwitch)
		}
		b.ReportMetric(origSwitch, "orig_switch_s")
		b.ReportMetric(adaptiveSwitch, "adaptive_switch_s")
	}
}

// BenchmarkBGFractionAblation reproduces the §3.4 tuning claim: background
// writing over roughly the last 10% of the quantum works best.
func BenchmarkBGFractionAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.BGFractionSweep(benchConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		best := rows[0]
		for _, r := range rows[1:] {
			if r.CompletionSec < best.CompletionSec {
				best = r
			}
		}
		b.ReportMetric(best.X, "best_fraction")
	}
}

// BenchmarkReadAheadAblation sweeps the kernel read-ahead group size under
// the original policy (§3.3's discussion of why a bigger read-ahead alone
// is not the answer).
func BenchmarkReadAheadAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.ReadAheadSweep(benchConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[1].Overhead, "ra16_overhead_pct")
		b.ReportMetric(100*rows[len(rows)-1].Overhead, "ra1024_overhead_pct")
	}
}

// BenchmarkQuantumSweep reproduces the Wang et al. trade-off the paper
// discusses: longer quanta amortise switching overhead.
func BenchmarkQuantumSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.QuantumSweep(benchConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Overhead <= rows[len(rows)-1].Overhead {
			b.Fatalf("overhead did not fall with quantum: %v", rows)
		}
		b.ReportMetric(100*rows[0].Overhead, "q60s_overhead_pct")
		b.ReportMetric(100*rows[len(rows)-1].Overhead, "q1200s_overhead_pct")
	}
}

// BenchmarkBlockPagingComparison runs the related-work baseline: blind
// VM/HPO-style block paging versus the gang-aware mechanisms.
func BenchmarkBlockPagingComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.BlockPagingStudy(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[2].Reduction, "block_reduction_pct")
		b.ReportMetric(100*rows[3].Reduction, "adaptive_reduction_pct")
	}
}

// BenchmarkMixedWorkloadResponse runs the responsiveness study behind the
// paper's motivation: a short job sharing the machine with a long one.
func BenchmarkMixedWorkloadResponse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.MixedWorkloadStudy(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scheduler == "gang+so/ao/ai/bg" {
				b.ReportMetric(r.ShortJobSec, "adaptive_short_s")
			}
			if r.Scheduler == "batch" {
				b.ReportMetric(r.ShortJobSec, "batch_short_s")
			}
		}
	}
}

// BenchmarkScalingStudy runs the paper's future work: LU across 1-16 nodes.
func BenchmarkScalingStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.ScalingStudy(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[0].Reduction, "serial_reduction_pct")
		b.ReportMetric(100*rows[len(rows)-1].Reduction, "nodes16_reduction_pct")
	}
}

// BenchmarkMemoryPressure reproduces the Moreira et al. anecdote from §1:
// three 45 MB jobs on a 128 MB machine versus a 256 MB machine.
func BenchmarkMemoryPressure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := expt.MemoryPressure(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if res.Slowdown <= 1.5 {
			b.Fatalf("memory pressure slowdown only %.2fx", res.Slowdown)
		}
		b.ReportMetric(res.Slowdown, "slowdown_x")
	}
}

// BenchmarkScale512 runs the 512-node/128-gang scale study, far past the
// paper's four machines: the engine's throughput on a large cluster.
func BenchmarkScale512(b *testing.B) {
	var r expt.ScaleResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = expt.ScaleStudy(benchConfig(), 512, 128)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MakespanSec, "sim_makespan_s")
	b.ReportMetric(float64(r.Events), "engine_events")
}
