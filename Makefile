# Developer entry points. `make ci` is what the full gate runs:
# vet + build + race tests, then the observability overhead pair.

GO ?= go

.PHONY: all build vet test race check-race-short soak audit fuzz serve-smoke check bench bench-obs ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full race tier: a generous timeout keeps `go test -race
# ./internal/expt` (about 9 minutes on a 2-vCPU host) inside the budget, so
# this target does not pass -short. The -short guards remain in the tests
# themselves for interactive runs on tiny hosts.
check-race-short:
	$(GO) test -race -timeout 40m ./...

# Fault-injection soak: the crash/disk-error/straggler mix under the race
# detector, repeated so scheduling nondeterminism in the host (not the
# sim — that is byte-identical) gets a chance to surface bugs.
soak:
	$(GO) test -race -count 3 -run 'TestFault|TestNilFault' -v .

# Invariant auditor: unit tests for every conservation law, then the fully
# audited policy matrix (all six paper combinations) and the audited fault
# soak, all under the race detector.
audit:
	$(GO) test -race -count 1 -run 'TestAudit|TestViolation' -v . ./internal/audit
	$(GO) test -race -count 1 -run 'TestCrashResumeClearsStaleOutgoing' -v ./internal/gang

# Randomised audited runs: fault/workload/policy combinations with a
# conservation check after every engine event, the differential-vs-oracle
# audit fuzz (O(delta) checking must give the same verdict and byte-identical
# results as sweeping the page tables every event, and as not auditing at
# all), the event-queue order fuzz (calendar queue vs a reference heap),
# the queue-journal recovery fuzz (truncated/bit-flipped/torn journals
# must never panic or resurrect partial records), the trace-store
# round-trip fuzz (random event streams and writer geometries must dump
# back byte-identical JSONL), and the victim-selection fuzz (bounded
# write-back, run-sorted page-out and the word-at-a-time clock sweep vs
# the full-scan and per-page references, on random touch/reclaim/crash
# sequences). FUZZTIME=10m for a soak.
#
# Every fuzz line bounds input minimization to ten execs. Go's default is
# 60 s per new-coverage input, and the fuzzer stops exploring while it
# minimizes: on a 2-vCPU host, from a cold cache, FuzzVictimSelection
# found its first new input within a second and then minimized it for the
# rest of a 20 s run (11 execs in total, against 2,625 with the bound),
# and FuzzEngineOrder, FuzzJournalRecover, FuzzStoreRoundTrip and
# FuzzAuditDifferential stalled the same way part way through.
FUZZTIME ?= 30s
FUZZMIN = -fuzzminimizetime 10x
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzAuditedRun $(FUZZMIN) -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzAuditDifferential $(FUZZMIN) -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzEngineOrder $(FUZZMIN) -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzJournalRecover $(FUZZMIN) -fuzztime $(FUZZTIME) ./internal/queue
	$(GO) test -run '^$$' -fuzz FuzzStoreRoundTrip $(FUZZMIN) -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzVictimSelection $(FUZZMIN) -fuzztime $(FUZZTIME) ./internal/vm

# End-to-end smoke of the gangsimd service: boot on a random port, submit
# a two-run sweep over HTTP, poll to completion, assert the served results
# are byte-equal (canonicalised) to the gangsim CLI's output for the same
# specs, then SIGTERM and require a clean drain (exit 0) that also ends the
# queue-event stream a background `curl -N /events` followed throughout.
serve-smoke:
	./scripts/serve_smoke.sh

# The everything gate: vet, build, race tests, the serial-vs-parallel
# equivalence test under the race detector (the determinism contract of the
# parallel experiment runner), the audited policy matrix + fault soak, the
# live-observer smoke (all three HTTP endpoints scraped mid-run), fuzz
# smokes of randomised audited runs, event-queue ordering, queue-journal
# recovery, trace-store round trips and victim selection, the gangsimd
# end-to-end serve smoke (served results must match CLI goldens, SIGTERM
# must drain cleanly and end the queue-event stream), the report check
# (`figures -md` must reproduce the committed EXPERIMENTS.md exactly), the
# figure check (`figures -svg` must regenerate every committed
# figures/*.svg byte for byte), the bench-regression gate (Fig7Serial +
# the PolicyRun audit pair + the engine microbenchmarks vs the committed
# BENCH_sim.json, so event-core wins cannot silently erode; whenever the
# PolicyRun pair is present benchjson also enforces the <=2x always-on
# audit budget, and whenever BenchmarkStoreEncode is present the trace
# store's >=5x bytes-per-event compression floor plus bytes/event growth),
# and the two overhead gates: RunTraced and RunStored may each cost at most
# 10% over RunObsEnabled (spans/ledgers and the store's delta encoder both
# ride the existing instrument points). Before all that, every internal
# package must be linked by some binary (a command, an example or
# perfbench): the grep prints any that none links and fails the gate.
check:
	! $(GO) list ./internal/... | grep -vxF "$$($(GO) list -deps ./cmd/... ./examples/... && cd perfbench && $(GO) list -deps .)"
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -race -run 'TestParallelEquivalence|TestWorkloadConcurrent' -count 1 .
	$(GO) test -race -run 'TestAuditPolicyMatrix|TestAuditFaultSoak' -count 1 .
	$(GO) test -race -run 'TestHTTPObserverServes|TestTraceDeterministicAcrossParallel' -count 1 .
	$(GO) test -run '^$$' -fuzz FuzzAuditedRun $(FUZZMIN) -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzAuditDifferential $(FUZZMIN) -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzEngineOrder $(FUZZMIN) -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzJournalRecover $(FUZZMIN) -fuzztime 10s ./internal/queue
	$(GO) test -run '^$$' -fuzz FuzzStoreRoundTrip $(FUZZMIN) -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzVictimSelection $(FUZZMIN) -fuzztime 10s ./internal/vm
	./scripts/serve_smoke.sh
	$(GO) build -o bin/figures ./cmd/figures
	bin/figures -md bin/EXPERIMENTS.md
	diff -u EXPERIMENTS.md bin/EXPERIMENTS.md
	bin/figures -svg bin/svg
	for f in figures/*.svg; do cmp "$$f" "bin/svg/$${f#figures/}" || exit 1; done
	$(GO) build -o bin/benchjson ./cmd/benchjson
	{ $(GO) test -run NONE -bench 'BenchmarkFig7Serial$$' -benchtime 1x -benchmem . \
	  && $(GO) test -run NONE -bench 'BenchmarkPolicyRun$$|BenchmarkPolicyRunAudited$$' -benchmem -count 3 . \
	  && $(GO) test -run NONE -bench 'BenchmarkEngine' -benchmem ./internal/sim \
	  && $(GO) test -run NONE -bench 'BenchmarkStore' -benchmem -count 3 ./internal/store; } \
	  | bin/benchjson -compare BENCH_sim.json
	$(GO) test -run NONE -bench 'BenchmarkRunObsEnabled$$|BenchmarkRunTraced$$|BenchmarkRunStored$$' -benchmem -benchtime 2s -count 5 . \
	  | tee bin/obs_bench.txt \
	  | bin/benchjson -overhead BenchmarkRunTraced/BenchmarkRunObsEnabled -threshold 10
	bin/benchjson -overhead BenchmarkRunStored/BenchmarkRunObsEnabled -threshold 10 < bin/obs_bench.txt

# Simulator benchmark suite with allocation stats, summarised into the
# machine-readable BENCH_sim.json (name, ns/op, B/op, allocs/op). The
# multi-second figure benchmarks run once (-benchtime 1x); the millisecond
# PolicyRun* trio runs at the default benchtime so its numbers are not
# single-iteration warmup noise. The PolicyRun/PolicyRunAudited pair yields
# a derived PolicyRunAuditOverhead record pricing the invariant auditor;
# the BenchmarkEngine* rows record the event queue itself so queue-level
# regressions show up without a figure run. The BenchmarkRun* trio records
# the observability stack's price ladder (disabled / events+metrics /
# full tracing), BenchmarkRunStored the same run with the binary trace
# store as its sink, BenchmarkStore{Encode,Decode,RangeQuery} the store
# itself (bytes/event and the JSONL comparison ride along as custom
# metrics), BenchmarkFigAttribution the ledger-driven figure,
# BenchmarkQueueEnqueueDispatch the durable queue's per-job cycle
# (journaled enqueue + lease + journaled completion, fsync off), and
# BenchmarkTouchRun/Fault the VM's touch kernel (ns/page) and fault path
# (allocs/op), and BenchmarkWriteBackDirty/ReclaimFrom/ClockSweep its victim
# and write-back selection on one large address space.
# BenchmarkSwitchPaging is the gang-switch layer: a switch each way between
# two so/ao/ai/bg processes that overcommit one node, through adaptive
# page-out and page-in to the last transfer. BenchmarkColdFill is the
# process engine's first write of a fresh 64K-page segment on an idle
# engine, whose touch windows fold the demand-zero fills a stretch at a
# time (ns/page). BenchmarkDiskRequest
# is the disk model's cost per request (one demand request, reused,
# through Submit and its completion; 0 allocs/op). BenchmarkAuditSweep is
# one full-sweep Auditor.Check (the oracle pass that re-derives every
# counter from the page tables) on a small node stepped to mid-run.
# BenchmarkWriteProm is one Prometheus exposition of an observed 16-node
# run's registry, where the metric views read the model's totals, and
# BenchmarkBusEmit one event through a bus with a full 256-event ring and
# a counting sink. BenchmarkScale512 records the 512-node/128-gang scale
# study.
bench:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	{ $(GO) test -run NONE -bench 'BenchmarkFig' -benchtime 1x -benchmem -timeout 60m . \
	  && $(GO) test -run NONE -bench 'BenchmarkScale512$$' -benchtime 1x -benchmem -timeout 60m . \
	  && $(GO) test -run NONE -bench 'BenchmarkPolicyRun' -benchmem . \
	  && $(GO) test -run NONE -bench 'BenchmarkRunObs|BenchmarkRunTraced|BenchmarkRunStored|BenchmarkWriteProm' -benchmem . \
	  && $(GO) test -run NONE -bench 'BenchmarkBusEmit$$' -benchmem ./internal/obs \
	  && $(GO) test -run NONE -bench 'BenchmarkEngine' -benchmem ./internal/sim \
	  && $(GO) test -run NONE -bench 'BenchmarkStore' -benchmem ./internal/store \
	  && $(GO) test -run NONE -bench 'BenchmarkQueueEnqueueDispatch' -benchmem ./internal/serve \
	  && $(GO) test -run NONE -bench 'BenchmarkTouchRun|BenchmarkFault$$|BenchmarkWriteBackDirty|BenchmarkReclaimFrom|BenchmarkClockSweep' -benchmem ./internal/vm \
	  && $(GO) test -run NONE -bench 'BenchmarkSwitchPaging$$' -benchmem ./internal/core \
	  && $(GO) test -run NONE -bench 'BenchmarkColdFill$$' -benchmem ./internal/proc \
	  && $(GO) test -run NONE -bench 'BenchmarkDiskRequest$$' -benchmem ./internal/disk \
	  && $(GO) test -run NONE -bench 'BenchmarkAuditSweep$$' -benchmem ./internal/audit; } \
	  | bin/benchjson -o BENCH_sim.json

# The obs pair: RunObsDisabled is the zero-overhead claim (parity with the
# pre-observability baseline), RunObsEnabled prices full capture. Compare
# with benchstat across changes.
bench-obs:
	$(GO) test -run NONE -bench 'BenchmarkRunObs' -benchmem -count 5 .

ci: vet build race bench-obs

clean:
	$(GO) clean ./...
