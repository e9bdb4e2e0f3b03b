package gangsched

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// JobConfig is the JSON description of one job for LoadSpec. A job is
// either a named NPB model (App/Class set) or a custom synthetic workload
// (FootprintMB etc. set).
type JobConfig struct {
	Name string `json:"name"`

	// Named model (takes precedence when App is non-empty).
	App   string `json:"app,omitempty"`
	Class string `json:"class,omitempty"`

	// Custom workload.
	FootprintMB   int     `json:"footprintMB,omitempty"`
	Iterations    int     `json:"iterations,omitempty"`
	TouchCostUs   int     `json:"touchCostUs,omitempty"`
	DirtyFrac     float64 `json:"dirtyFrac,omitempty"`
	ScatterChunks int     `json:"scatterChunks,omitempty"`
	MsgKB         int     `json:"msgKB,omitempty"`
	Jitter        float64 `json:"jitter,omitempty"`

	Quantum string `json:"quantum,omitempty"` // e.g. "5m"
	HintWS  bool   `json:"hintWS,omitempty"`
}

// SpecConfig is the JSON description of a whole experiment for LoadSpec.
type SpecConfig struct {
	Seed     int64  `json:"seed,omitempty"`
	Nodes    int    `json:"nodes,omitempty"`
	MemoryMB int    `json:"memoryMB,omitempty"`
	LockedMB int    `json:"lockedMB,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Batch    bool   `json:"batch,omitempty"`
	Quantum  string `json:"quantum,omitempty"`
	// TimeLimit aborts wedged runs, e.g. "24h" (0 = the library default).
	TimeLimit string  `json:"timeLimit,omitempty"`
	BGFrac    float64 `json:"bgWriteFraction,omitempty"`
	Traces    bool    `json:"recordTraces,omitempty"`
	// Watermark and page-out clustering overrides (0 = defaults).
	FreeMinPages  int `json:"freeMinPages,omitempty"`
	FreeHighPages int `json:"freeHighPages,omitempty"`
	ClusterOut    int `json:"clusterOut,omitempty"`
	// Audit attaches the invariant auditor; AuditEvery sets its sweep
	// interval in engine events (implies Audit when positive).
	Audit      bool `json:"audit,omitempty"`
	AuditEvery int  `json:"auditEvery,omitempty"`
	// Faults is a fault plan in the -faults flag syntax, e.g.
	// "crash=n1@12m,downtime=2m;diskerr=0.001".
	Faults string      `json:"faults,omitempty"`
	Jobs   []JobConfig `json:"jobs"`
}

// LoadSpec reads a JSON experiment description from path and builds a Spec.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	return ParseSpec(data)
}

// ParseSpec builds a Spec from JSON bytes (see SpecConfig for the schema).
func ParseSpec(data []byte) (Spec, error) {
	var sc SpecConfig
	if err := json.Unmarshal(data, &sc); err != nil {
		return Spec{}, fmt.Errorf("gangsched: parsing spec: %w", err)
	}
	return sc.Spec()
}

// Spec converts the parsed configuration into a runnable Spec.
func (sc SpecConfig) Spec() (Spec, error) {
	spec := Spec{
		Seed:            sc.Seed,
		Nodes:           sc.Nodes,
		MemoryMB:        sc.MemoryMB,
		LockedMB:        sc.LockedMB,
		Policy:          sc.Policy,
		Batch:           sc.Batch,
		BGWriteFraction: sc.BGFrac,
		RecordTraces:    sc.Traces,
		FreeMinPages:    sc.FreeMinPages,
		FreeHighPages:   sc.FreeHighPages,
		ClusterOut:      sc.ClusterOut,
	}
	if sc.Audit || sc.AuditEvery > 0 {
		spec.Audit = &AuditSpec{Every: sc.AuditEvery}
	}
	if sc.Quantum != "" {
		q, err := time.ParseDuration(sc.Quantum)
		if err != nil {
			return Spec{}, fmt.Errorf("gangsched: spec quantum: %w", err)
		}
		spec.Quantum = q
	}
	if sc.TimeLimit != "" {
		tl, err := time.ParseDuration(sc.TimeLimit)
		if err != nil {
			return Spec{}, fmt.Errorf("gangsched: spec timeLimit: %w", err)
		}
		spec.TimeLimit = tl
	}
	if sc.Faults != "" {
		f, err := ParseFaults(sc.Faults)
		if err != nil {
			return Spec{}, fmt.Errorf("gangsched: spec faults: %w", err)
		}
		spec.Faults = f
	}
	if len(sc.Jobs) == 0 {
		return Spec{}, fmt.Errorf("gangsched: spec has no jobs")
	}
	ranks := sc.Nodes
	if ranks <= 0 {
		ranks = 1
	}
	for i, jc := range sc.Jobs {
		if jc.Name == "" {
			return Spec{}, fmt.Errorf("gangsched: job %d has no name", i)
		}
		job := JobSpec{Name: jc.Name, HintWorkingSet: jc.HintWS}
		if jc.Quantum != "" {
			q, err := time.ParseDuration(jc.Quantum)
			if err != nil {
				return Spec{}, fmt.Errorf("gangsched: job %q quantum: %w", jc.Name, err)
			}
			job.Quantum = q
		}
		switch {
		case jc.App != "":
			class := workload.Class(jc.Class)
			if class == "" {
				class = ClassB
			}
			m, err := workload.Get(workload.App(jc.App), class, ranks)
			if err != nil {
				return Spec{}, fmt.Errorf("gangsched: job %q: %w", jc.Name, err)
			}
			beh := m.Behavior()
			beh.Jitter = jc.Jitter
			job.Workload = beh
		default:
			m := workload.Model{
				App:           workload.App(jc.Name),
				Class:         "-",
				Ranks:         ranks,
				FootprintMB:   jc.FootprintMB,
				Iterations:    jc.Iterations,
				TouchCost:     sim.Duration(jc.TouchCostUs) * sim.Microsecond,
				DirtyFrac:     jc.DirtyFrac,
				ScatterChunks: jc.ScatterChunks,
				MsgBytes:      jc.MsgKB << 10,
			}
			beh := m.Behavior()
			beh.Jitter = jc.Jitter
			if err := beh.Validate(); err != nil {
				return Spec{}, fmt.Errorf("gangsched: job %q: %w", jc.Name, err)
			}
			job.Workload = beh
		}
		spec.Jobs = append(spec.Jobs, job)
	}
	return spec, nil
}
