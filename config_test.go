package gangsched

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

const sampleSpec = `{
  "seed": 7,
  "nodes": 1,
  "memoryMB": 16,
  "policy": "so/ao/ai/bg",
  "quantum": "250ms",
  "jobs": [
    {"name": "a", "footprintMB": 4, "iterations": 30, "touchCostUs": 20,
     "dirtyFrac": 0.7, "hintWS": true},
    {"name": "b", "footprintMB": 4, "iterations": 30, "touchCostUs": 20,
     "dirtyFrac": 0.7, "hintWS": true, "quantum": "500ms"}
  ]
}`

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec([]byte(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 7 || spec.MemoryMB != 16 || spec.Policy != "so/ao/ai/bg" {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Quantum != 250*time.Millisecond {
		t.Fatalf("quantum = %v", spec.Quantum)
	}
	if len(spec.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(spec.Jobs))
	}
	if spec.Jobs[1].Quantum != 500*time.Millisecond {
		t.Fatalf("per-job quantum = %v", spec.Jobs[1].Quantum)
	}
	if spec.Jobs[0].Workload.FootprintPages != 1024 {
		t.Fatalf("footprint = %d", spec.Jobs[0].Workload.FootprintPages)
	}
	// Parsed specs run.
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatal("run failed")
	}
}

func TestParseSpecNamedModel(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
	  "nodes": 1, "memoryMB": 1024, "lockedMB": 786, "policy": "so",
	  "jobs": [{"name": "lu1", "app": "LU", "class": "B", "hintWS": true},
	           {"name": "lu2", "app": "LU", "class": "B"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Jobs[0].Workload.FootprintPages != 190*256 {
		t.Fatalf("LU footprint = %d", spec.Jobs[0].Workload.FootprintPages)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []string{
		`{`, // syntax
		`{"jobs": []}`,
		`{"jobs": [{"name": "", "footprintMB": 1, "iterations": 1, "touchCostUs": 1}]}`,
		`{"jobs": [{"name": "x"}]}`, // no model, invalid workload
		`{"jobs": [{"name": "x", "app": "NOPE"}]}`,
		`{"quantum": "fast", "jobs": [{"name": "x", "app": "LU"}]}`,
		`{"jobs": [{"name": "x", "app": "LU", "quantum": "soon"}]}`,
	}
	for i, c := range cases {
		if _, err := ParseSpec([]byte(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestLoadSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(sampleSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Jobs) != 2 {
		t.Fatal("bad spec")
	}
	if _, err := LoadSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestParseSpecJitter(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
	  "nodes": 1, "memoryMB": 16,
	  "jobs": [{"name": "x", "footprintMB": 2, "iterations": 5,
	            "touchCostUs": 10, "dirtyFrac": 1, "jitter": 0.2}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Jobs[0].Workload.Jitter != 0.2 {
		t.Fatalf("jitter = %v", spec.Jobs[0].Workload.Jitter)
	}
}

// TestParseSpecRetiredField: a spec (or gangsimd journal record) written
// while the schema still carried the retired intra-run engine-split field
// decodes to exactly the Spec the same document gives without it, so old
// specs and journals keep replaying on the one serial engine.
func TestParseSpecRetiredField(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "retired_field_spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	strict := json.NewDecoder(bytes.NewReader(legacy))
	strict.DisallowUnknownFields()
	if strict.Decode(&SpecConfig{}) == nil {
		t.Fatal("testdata spec carries no retired field; the check is vacuous")
	}
	got, err := ParseSpec(legacy)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ParseSpec([]byte(`{
		"nodes": 4, "memoryMB": 8, "policy": "so/ao/ai/bg",
		"jobs": [{"name": "a", "footprintMB": 2, "iterations": 3, "touchCostUs": 50}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("retired field changed the spec\nwith:    %+v\nwithout: %+v", got, want)
	}
}
