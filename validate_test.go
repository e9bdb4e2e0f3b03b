package gangsched

import (
	"strings"
	"testing"
	"time"
)

// TestSpecValidateTable covers Validate's acceptance matrix, pinning in
// particular the silent-misconfiguration fix: a negative audit interval is
// rejected up front, while the zero value keeps its documented defaulting
// semantics (audit after every event, matching Cluster.SetStepCheck).
func TestSpecValidateTable(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string // substring of the expected error; "" means valid
	}{
		{"baseline", func(*Spec) {}, ""},
		{"zero audit interval means every event", func(s *Spec) { s.Audit = &AuditSpec{} }, ""},
		{"negative audit interval", func(s *Spec) { s.Audit = &AuditSpec{Every: -1} }, "audit"},
		{"sparse audit interval", func(s *Spec) { s.Audit = &AuditSpec{Every: 4096} }, ""},
		{"negative audit cross-check is differential-only", func(s *Spec) {
			s.Audit = &AuditSpec{Every: 1, CrossEvery: -1}
		}, ""},
		{"oracle cross-check", func(s *Spec) { s.Audit = &AuditSpec{Every: 1, CrossEvery: 1} }, ""},
		{"no jobs", func(s *Spec) { s.Jobs = nil }, "no jobs"},
		{"negative nodes", func(s *Spec) { s.Nodes = -1 }, "node count"},
		{"unknown policy", func(s *Spec) { s.Policy = "so/xx" }, "unknown paging feature"},
		{"negative memory", func(s *Spec) { s.MemoryMB = -1 }, "memory"},
		{"locked at memory size", func(s *Spec) { s.LockedMB = s.MemoryMB }, "locked"},
		{"negative quantum", func(s *Spec) { s.Quantum = -time.Second }, "quantum"},
		{"negative time limit", func(s *Spec) { s.TimeLimit = -time.Second }, "time limit"},
		{"nameless job", func(s *Spec) { s.Jobs[0].Name = "" }, "no name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := fourNodeSpec("so/ao/ai/bg")
			tc.mutate(&spec)
			err := spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() accepted the spec, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}
