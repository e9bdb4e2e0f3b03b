package gangsched

import (
	"errors"
	"testing"
	"time"
)

// FuzzAuditedRun drives random workload / policy / fault combinations
// through a fully audited run (a sweep after every engine event). Specs the
// validator rejects are uninteresting; runs cut short by the time limit are
// fine; an invariant Violation — or any other failure of a valid spec — is
// a conservation bug.
func FuzzAuditedRun(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(300), uint8(4), uint8(5), uint8(0), false)
	f.Add(int64(2), uint8(1), uint16(1150), uint8(8), uint8(0), uint8(3), true)
	f.Add(int64(3), uint8(7), uint16(700), uint8(2), uint8(3), uint8(9), true)
	f.Add(int64(99), uint8(3), uint16(64), uint8(12), uint8(2), uint8(7), false)
	// One node whose 11 MB hold both jobs (1,100 and 900 pages), 12
	// iterations of 55 and 45 ms, and 300 ms quanta: resident touch windows
	// skip iterations. Then the same with disk faults and a crash at 1 s,
	// inside the second job's second quantum.
	f.Add(int64(4), uint8(7), uint16(1000), uint8(11), uint8(5), uint8(10), false)
	f.Add(int64(6), uint8(7), uint16(1000), uint8(11), uint8(4), uint8(10), true)

	policies := []string{"orig", "ai", "so", "so/ao", "so/ao/bg", "so/ao/ai/bg"}
	f.Fuzz(func(t *testing.T, seed int64, memB uint8, pagesU uint16, itersB, policyB, quantumB uint8, faults bool) {
		nodes := 1 + int(seed&1)
		spec := Spec{
			Seed:      seed,
			Nodes:     nodes,
			MemoryMB:  4 + int(memB%8),
			Policy:    policies[int(policyB)%len(policies)],
			Quantum:   time.Duration(100+int(quantumB)*20) * time.Millisecond,
			TimeLimit: 30 * time.Minute,
			Audit:     &AuditSpec{Every: 1},
			Jobs: []JobSpec{
				{Name: "a", Workload: fastJob(100+int(pagesU)%1100, 1+int(itersB)%12), HintWorkingSet: true},
				{Name: "b", Workload: fastJob(100+int(pagesU*3)%1100, 1+int(itersB)%12), HintWorkingSet: true},
			},
		}
		if faults {
			spec.Faults = &FaultsSpec{
				DiskErrRate:  float64(memB%4) / 100,
				DiskSlowRate: float64(itersB%4) / 100,
				Crashes: []FaultCrash{
					{Node: int(policyB) % nodes, At: time.Duration(1+quantumB%5) * time.Second, Downtime: 2 * time.Second},
				},
			}
		}
		if err := spec.Validate(); err != nil {
			t.Skipf("spec rejected: %v", err)
		}
		h, err := RunDetailed(spec)
		if err != nil {
			var v *Violation
			if errors.As(err, &v) {
				t.Fatalf("invariant %s violated: %v", v.Invariant, v)
			}
			if errors.Is(err, ErrTimeLimit) {
				return // bounded run, books balanced at every checked step
			}
			t.Fatalf("valid spec failed: %v", err)
		}
		if h.AuditChecks == 0 {
			t.Fatal("audited run performed no sweeps")
		}
	})
}

// FuzzAuditDifferential pits the differential auditor against the
// full-sweep oracle and an unaudited baseline: for any spec — policies,
// faults, tight time limits — a run checked O(delta) per event must
// produce the same verdict (success, time limit, or violation) and a
// byte-identical result as the same run swept from the page tables at
// every event, and both must match the unaudited run. A divergence
// means a delta law is unsound, an emitting layer posts the wrong delta,
// or auditing perturbed the simulation.
func FuzzAuditDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(300), uint8(4), uint8(5), uint8(0), false)
	f.Add(int64(2), uint8(1), uint16(1150), uint8(8), uint8(0), uint8(3), true)
	f.Add(int64(3), uint8(7), uint16(700), uint8(2), uint8(3), uint8(9), true)
	f.Add(int64(42), uint8(3), uint16(64), uint8(12), uint8(2), uint8(7), false)

	policies := []string{"orig", "ai", "so", "so/ao", "so/ao/bg", "so/ao/ai/bg"}
	crossEveries := []int{-1, 7, 0} // differential-only, tight interleave, default cadence
	f.Fuzz(func(t *testing.T, seed int64, memB uint8, pagesU uint16, itersB, policyB, quantumB uint8, faults bool) {
		nodes := 1 + int(seed&3)
		build := func(audit *AuditSpec) Spec {
			spec := Spec{
				Seed:      seed,
				Nodes:     nodes,
				MemoryMB:  4 + int(memB%8),
				Policy:    policies[int(policyB)%len(policies)],
				Quantum:   time.Duration(100+int(quantumB)*20) * time.Millisecond,
				TimeLimit: 10 * time.Minute,
				Audit:     audit,
				Jobs: []JobSpec{
					{Name: "a", Workload: parallelJob(100+int(pagesU)%1100, 1+int(itersB)%12), HintWorkingSet: true},
					{Name: "b", Workload: fastJob(100+int(pagesU*3)%1100, 1+int(itersB)%12), HintWorkingSet: true},
				},
			}
			if faults {
				spec.Faults = &FaultsSpec{
					DiskErrRate:  float64(memB%4) / 100,
					DiskSlowRate: float64(itersB%4) / 100,
					Crashes: []FaultCrash{
						{Node: int(policyB) % nodes, At: time.Duration(1+quantumB%5) * time.Second, Downtime: 2 * time.Second},
					},
				}
			}
			return spec
		}
		diffSpec := build(&AuditSpec{Every: 1, CrossEvery: crossEveries[int(quantumB)%len(crossEveries)]})
		if err := diffSpec.Validate(); err != nil {
			t.Skipf("spec rejected: %v", err)
		}
		diff, diffErr := RunDetailed(diffSpec)
		oracle, oracleErr := RunDetailed(build(&AuditSpec{Every: 1, CrossEvery: 1}))
		plain, plainErr := RunDetailed(build(nil))
		for _, err := range []error{diffErr, oracleErr} {
			var v *Violation
			if errors.As(err, &v) {
				t.Fatalf("invariant %s violated: %v", v.Invariant, v)
			}
		}
		if (diffErr == nil) != (oracleErr == nil) || (diffErr != nil && diffErr.Error() != oracleErr.Error()) {
			t.Fatalf("verdict mismatch: differential %v, oracle %v", diffErr, oracleErr)
		}
		if (diffErr == nil) != (plainErr == nil) || (diffErr != nil && diffErr.Error() != plainErr.Error()) {
			t.Fatalf("verdict mismatch: differential %v, unaudited %v", diffErr, plainErr)
		}
		if diffErr != nil && !errors.Is(diffErr, ErrTimeLimit) {
			t.Fatalf("valid spec failed: %v", diffErr)
		}
		if diff == nil {
			return // identically cut short before a handle existed
		}
		if a, b := resultJSON(t, diff.Result), resultJSON(t, oracle.Result); a != b {
			t.Fatalf("differential result diverged from oracle\ndifferential: %s\noracle:       %s", a, b)
		}
		if a, b := resultJSON(t, diff.Result), resultJSON(t, plain.Result); a != b {
			t.Fatalf("audited result diverged from unaudited\naudited:   %s\nunaudited: %s", a, b)
		}
		if diff.AuditChecks == 0 {
			t.Fatal("audited run performed no checks")
		}
	})
}
