// Package expt defines one runner per table/figure in the paper's
// evaluation (§4) plus the ablations DESIGN.md calls out:
//
//   - Figure6: paging-activity traces of two gang-scheduled LU class C
//     instances on four machines under orig, so, so/ao and so/ao/ai/bg.
//   - Figure7: serial class B benchmarks — completion time, switching
//     overhead and paging reduction against a batch baseline.
//   - Figure8: the parallel versions on two and four machines.
//   - Figure9: the LU policy ablation across all mechanism combinations
//     for serial, two- and four-machine runs.
//   - BGFractionSweep: the §3.4 tuning claim (background writing for the
//     last ~10% of the quantum is best).
//   - ReadAheadSweep: the §3.3 discussion (raising the kernel read-ahead
//     group size alone).
//   - QuantumSweep: the Wang et al. overhead-vs-quantum trade-off (§5).
//   - MemoryPressure: the Moreira et al. motivation (§1) — three 45 MB
//     jobs on a 128 MB vs a 256 MB machine.
//
// Every study describes each of its runs as a runSpec, plain data that one
// builder (Config.build) turns into an observed cluster; most runs are the
// paper's pair (Config.pair) with one field changed.
//
// Every runner is deterministic for a given Config.Seed and returns plain
// result structs; formatting lives in report.go so cmd/figures, the bench
// harness and EXPERIMENTS.md all share one source of numbers.
package expt
