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
# write-back and sorted page-out vs the full-scan references, on random
# touch/reclaim/crash sequences). FUZZTIME=10m for a soak.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzAuditedRun -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzAuditDifferential -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzEngineOrder -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzJournalRecover -fuzztime $(FUZZTIME) ./internal/queue
	$(GO) test -run '^$$' -fuzz FuzzStoreRoundTrip -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzVictimSelection -fuzztime $(FUZZTIME) ./internal/vm

# End-to-end smoke of the gangsimd service: boot on a random port, submit
# a two-run sweep over HTTP, poll to completion, assert the served results
# are byte-equal (canonicalised) to the gangsim CLI's output for the same
# specs, then SIGTERM and require a clean drain (exit 0).
serve-smoke:
	./scripts/serve_smoke.sh

# The everything gate: vet, build, race tests, the serial-vs-parallel
# equivalence test under the race detector (the determinism contract of the
# parallel experiment runner), the audited policy matrix + fault soak, the
# live-observer smoke (all three HTTP endpoints scraped mid-run), fuzz
# smokes of randomised audited runs, event-queue ordering, queue-journal
# recovery, trace-store round trips and victim selection, the gangsimd
# end-to-end serve smoke (served results must match CLI goldens, SIGTERM
# must drain cleanly), the report check (`figures -md` must reproduce the
# committed EXPERIMENTS.md exactly), the bench-regression gate (Fig7Serial +
# the PolicyRun audit pair + the engine microbenchmarks vs the committed
# BENCH_sim.json, so event-core wins cannot silently erode; whenever the
# PolicyRun pair is present benchjson also enforces the <=2x always-on
# audit budget, and whenever BenchmarkStoreEncode is present the trace
# store's >=5x bytes-per-event compression floor plus bytes/event growth),
# and the two overhead gates: RunTraced and RunStored may each cost at most
# 10% over RunObsEnabled (spans/ledgers and the store's delta encoder both
# ride the existing instrument points).
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -race -run 'TestParallelEquivalence|TestWorkloadConcurrent' -count 1 .
	$(GO) test -race -run 'TestAuditPolicyMatrix|TestAuditFaultSoak' -count 1 .
	$(GO) test -race -run 'TestHTTPObserverServes|TestTraceDeterministicAcrossParallel' -count 1 .
	$(GO) test -run '^$$' -fuzz FuzzAuditedRun -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzAuditDifferential -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzEngineOrder -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzJournalRecover -fuzztime 10s ./internal/queue
	$(GO) test -run '^$$' -fuzz FuzzStoreRoundTrip -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzVictimSelection -fuzztime 10s ./internal/vm
	./scripts/serve_smoke.sh
	$(GO) build -o bin/figures ./cmd/figures
	bin/figures -md bin/EXPERIMENTS.md
	diff -u EXPERIMENTS.md bin/EXPERIMENTS.md
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
# BenchmarkWriteBackDirty/ReclaimFrom/ClockSweep the VM's victim and
# write-back selection on one large address space. BenchmarkScale512
# records the 512-node/128-gang scale study.
bench:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	{ $(GO) test -run NONE -bench 'BenchmarkFig' -benchtime 1x -benchmem -timeout 60m . \
	  && $(GO) test -run NONE -bench 'BenchmarkScale512$$' -benchtime 1x -benchmem -timeout 60m . \
	  && $(GO) test -run NONE -bench 'BenchmarkPolicyRun' -benchmem . \
	  && $(GO) test -run NONE -bench 'BenchmarkRunObs|BenchmarkRunTraced|BenchmarkRunStored' -benchmem . \
	  && $(GO) test -run NONE -bench 'BenchmarkEngine' -benchmem ./internal/sim \
	  && $(GO) test -run NONE -bench 'BenchmarkStore' -benchmem ./internal/store \
	  && $(GO) test -run NONE -bench 'BenchmarkQueueEnqueueDispatch' -benchmem ./internal/serve \
	  && $(GO) test -run NONE -bench 'BenchmarkWriteBackDirty|BenchmarkReclaimFrom|BenchmarkClockSweep' -benchmem ./internal/vm; } \
	  | bin/benchjson -o BENCH_sim.json

# The obs pair: RunObsDisabled is the zero-overhead claim (parity with the
# pre-observability baseline), RunObsEnabled prices full capture. Compare
# with benchstat across changes.
bench-obs:
	$(GO) test -run NONE -bench 'BenchmarkRunObs' -benchmem -count 5 .

ci: vet build race bench-obs

clean:
	$(GO) clean ./...
