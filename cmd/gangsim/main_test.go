package main

import (
	"testing"
	"time"

	"repro/internal/workload"
)

// TestSpecForPairQuantum pins that the CLI's pair takes the quantum
// workload.Model.Quantum gives the model, and otherwise the flag's value
// unrounded.
func TestSpecForPairQuantum(t *testing.T) {
	sp4 := workload.MustGet(workload.SP, workload.ClassC, 4)
	lu := workload.MustGet(workload.LU, workload.ClassB, 1)
	for _, c := range []struct {
		m          workload.Model
		flag, want time.Duration
	}{
		{sp4, 5 * time.Minute, 7 * time.Minute},
		{sp4, 2 * time.Minute, 2 * time.Minute},
		{lu, 5 * time.Minute, 5 * time.Minute},
		{lu, 1500 * time.Nanosecond, 1500 * time.Nanosecond},
	} {
		if q := specForPair(c.m, "orig", false, c.flag, 1).Quantum; q != c.want {
			t.Errorf("%s/%d with -quantum %v: quantum %v, want %v", c.m.App, c.m.Ranks, c.flag, q, c.want)
		}
	}
}
