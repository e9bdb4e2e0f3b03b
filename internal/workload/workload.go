package workload

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/proc"
	"repro/internal/sim"
)

// App names one NPB2 benchmark program.
type App string

// The five NPB2 programs the paper evaluates.
const (
	LU App = "LU"
	SP App = "SP"
	CG App = "CG"
	IS App = "IS"
	MG App = "MG"
)

// Apps lists the modelled programs in the paper's order.
func Apps() []App { return []App{LU, SP, CG, IS, MG} }

// Class is the NPB data class.
type Class string

// Classes used by the paper: A (parallel Fig 6 uses C), B (serial), C.
const (
	ClassA Class = "A"
	ClassB Class = "B"
	ClassC Class = "C"
)

// Model is a synthetic stand-in for one (app, class, ranks) configuration.
type Model struct {
	App   App
	Class Class
	Ranks int

	// FootprintMB is the per-rank memory image.
	FootprintMB int
	// AvailMB is the available node memory the experiment should leave
	// unlocked so two instances over-commit it (the paper's mlock sizing).
	AvailMB int

	Iterations int
	// TouchCost is CPU time per page visit; it encodes the app's
	// compute-to-memory ratio.
	TouchCost sim.Duration
	// DirtyFrac is the fraction of the footprint written every iteration.
	DirtyFrac float64
	// ReadPasses / WritePasses are sweeps per iteration over each region.
	ReadPasses, WritePasses int
	// ScatterChunks > 1 splits the traversal into that many chunks visited
	// in a deterministic shuffled order (IS's bucket scatter).
	ScatterChunks int
	// ComputePerIter is extra pure-CPU time per iteration.
	ComputePerIter sim.Duration
	// MsgBytes is the per-iteration barrier payload for parallel runs.
	MsgBytes int
}

// FootprintPages reports the per-rank footprint in pages.
func (m Model) FootprintPages() int { return mem.PagesFromMB(m.FootprintMB) }

// Quantum returns the gang quantum the paper runs m with when q is the
// configured one: SP on four machines gets 7 minutes "to avoid continuous
// memory thrashing" (§4.2) whenever q is the default 5.
func (m Model) Quantum(q sim.Duration) sim.Duration {
	if m.App == SP && m.Ranks == 4 && q == 5*sim.Minute {
		return 7 * sim.Minute
	}
	return q
}

// Behavior builds the proc reference pattern for one rank.
func (m Model) Behavior() proc.Behavior {
	f := m.FootprintPages()
	wp := int(float64(f)*m.DirtyFrac + 0.5)
	if m.DirtyFrac > 0 && wp == 0 {
		wp = 1
	}
	if wp > f {
		wp = f
	}
	rp := f - wp
	readPasses, writePasses := m.ReadPasses, m.WritePasses
	if readPasses <= 0 {
		readPasses = 1
	}
	if writePasses <= 0 {
		writePasses = 1
	}
	var segs []proc.Segment
	if wp > 0 {
		segs = append(segs, proc.Segment{Offset: 0, Pages: wp, Write: true, Passes: writePasses})
	}
	if rp > 0 {
		segs = append(segs, proc.Segment{Offset: wp, Pages: rp, Write: false, Passes: readPasses})
	}
	if m.ScatterChunks > 1 {
		segs = scatter(segs, m.ScatterChunks)
	}
	return proc.Behavior{
		FootprintPages: f,
		Iterations:     m.Iterations,
		Segments:       segs,
		TouchCost:      m.TouchCost,
		ComputePerIter: m.ComputePerIter,
		InitWrite:      true,
		SyncEveryIter:  m.Ranks > 1,
		MsgBytes:       m.MsgBytes,
	}
}

// scatter splits the segments into ~n chunks and reorders them with a
// deterministic stride permutation, modelling low-locality access.
func scatter(segs []proc.Segment, n int) []proc.Segment {
	var chunks []proc.Segment
	total := 0
	for _, s := range segs {
		total += s.Pages
	}
	chunkPages := total / n
	if chunkPages < 1 {
		chunkPages = 1
	}
	for _, s := range segs {
		for off := 0; off < s.Pages; off += chunkPages {
			pages := chunkPages
			if off+pages > s.Pages {
				pages = s.Pages - off
			}
			chunks = append(chunks, proc.Segment{
				Offset: s.Offset + off, Pages: pages, Write: s.Write, Passes: s.Passes,
			})
		}
	}
	// Stride permutation: visit chunk (i*stride) mod len in order; stride
	// chosen coprime with the count for a full cycle.
	cnt := len(chunks)
	stride := cnt*2/3 + 1
	for gcd(stride, cnt) != 1 {
		stride++
	}
	out := make([]proc.Segment, 0, cnt)
	for i := 0; i < cnt; i++ {
		out = append(out, chunks[(i*stride)%cnt])
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// key identifies a table entry.
type key struct {
	app   App
	class Class
	ranks int
}

// The calibrated model table. Footprints follow published NPB2 memory
// sizes (the paper reports 188-400 MB for its class B selection and 188 MB
// per node for LU class C on four machines); iteration counts, touch costs
// and lock sizes are calibrated so the simulated runs land in the paper's
// regime (multi-hundred-second jobs, five-minute quanta, ~50% original
// switching overheads).
var table = map[key]Model{
	// ---- Serial, class B (Figure 7; LU also Figure 9 serial) ----
	{LU, ClassB, 1}: {App: LU, Class: ClassB, Ranks: 1, FootprintMB: 190, AvailMB: 238,
		Iterations: 250, TouchCost: 70 * sim.Microsecond, DirtyFrac: 0.65},
	{SP, ClassB, 1}: {App: SP, Class: ClassB, Ranks: 1, FootprintMB: 320, AvailMB: 400,
		Iterations: 220, TouchCost: 61 * sim.Microsecond, DirtyFrac: 0.60},
	{CG, ClassB, 1}: {App: CG, Class: ClassB, Ranks: 1, FootprintMB: 360, AvailMB: 450,
		Iterations: 180, TouchCost: 54 * sim.Microsecond, DirtyFrac: 0.12},
	{IS, ClassB, 1}: {App: IS, Class: ClassB, Ranks: 1, FootprintMB: 250, AvailMB: 380,
		Iterations: 260, TouchCost: 35 * sim.Microsecond, DirtyFrac: 0.90, ScatterChunks: 400},
	{MG, ClassB, 1}: {App: MG, Class: ClassB, Ranks: 1, FootprintMB: 400, AvailMB: 560,
		Iterations: 185, TouchCost: 42 * sim.Microsecond, DirtyFrac: 0.75},

	// ---- Parallel, two machines (Figure 8 a-c; LU also Figure 9) ----
	{LU, ClassC, 2}: {App: LU, Class: ClassC, Ranks: 2, FootprintMB: 300, AvailMB: 360,
		Iterations: 250, TouchCost: 60 * sim.Microsecond, DirtyFrac: 0.65, MsgBytes: 200 << 10},
	{CG, ClassB, 2}: {App: CG, Class: ClassB, Ranks: 2, FootprintMB: 200, AvailMB: 240,
		Iterations: 180, TouchCost: 50 * sim.Microsecond, DirtyFrac: 0.12, MsgBytes: 150 << 10},
	{IS, ClassB, 2}: {App: IS, Class: ClassB, Ranks: 2, FootprintMB: 180, AvailMB: 185,
		Iterations: 240, TouchCost: 55 * sim.Microsecond, DirtyFrac: 0.90, ScatterChunks: 128, MsgBytes: 1 << 20},
	{MG, ClassB, 2}: {App: MG, Class: ClassB, Ranks: 2, FootprintMB: 250, AvailMB: 300,
		Iterations: 120, TouchCost: 60 * sim.Microsecond, DirtyFrac: 0.75, MsgBytes: 300 << 10},

	// ---- Parallel, four machines (Figure 8 d-f; LU also Figures 6, 9) ----
	{LU, ClassC, 4}: {App: LU, Class: ClassC, Ranks: 4, FootprintMB: 188, AvailMB: 350,
		Iterations: 300, TouchCost: 55 * sim.Microsecond, DirtyFrac: 0.65, MsgBytes: 200 << 10},
	{SP, ClassC, 4}: {App: SP, Class: ClassC, Ranks: 4, FootprintMB: 260, AvailMB: 300,
		Iterations: 250, TouchCost: 55 * sim.Microsecond, DirtyFrac: 0.60, MsgBytes: 400 << 10},
	{CG, ClassB, 4}: {App: CG, Class: ClassB, Ranks: 4, FootprintMB: 100, AvailMB: 350,
		Iterations: 500, TouchCost: 50 * sim.Microsecond, DirtyFrac: 0.12, MsgBytes: 150 << 10},
	{IS, ClassB, 4}: {App: IS, Class: ClassB, Ranks: 4, FootprintMB: 150, AvailMB: 160,
		Iterations: 300, TouchCost: 50 * sim.Microsecond, DirtyFrac: 0.90, ScatterChunks: 128, MsgBytes: 1 << 20},

	// ---- Larger clusters (the paper's announced future work: 8 and 16
	// nodes with 1 GB memory each). Per-node footprints shrink with the
	// node count; available memory is locked down in proportion so the
	// two-job over-commit is preserved. ----
	{LU, ClassC, 8}: {App: LU, Class: ClassC, Ranks: 8, FootprintMB: 150, AvailMB: 210,
		Iterations: 300, TouchCost: 55 * sim.Microsecond, DirtyFrac: 0.65, MsgBytes: 150 << 10},
	{LU, ClassC, 16}: {App: LU, Class: ClassC, Ranks: 16, FootprintMB: 120, AvailMB: 170,
		Iterations: 300, TouchCost: 55 * sim.Microsecond, DirtyFrac: 0.65, MsgBytes: 100 << 10},
}

// Get looks up the calibrated model for (app, class, ranks).
func Get(app App, class Class, ranks int) (Model, error) {
	m, ok := table[key{app, class, ranks}]
	if !ok {
		return Model{}, fmt.Errorf("workload: no model for %s class %s on %d rank(s)", app, class, ranks)
	}
	return m, nil
}

// MustGet is Get that panics on unknown configurations.
func MustGet(app App, class Class, ranks int) Model {
	m, err := Get(app, class, ranks)
	if err != nil {
		panic(err)
	}
	return m
}

// Available lists every modelled configuration, sorted for stable output.
func Available() []Model {
	out := make([]Model, 0, len(table))
	for _, m := range table {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ranks != out[j].Ranks {
			return out[i].Ranks < out[j].Ranks
		}
		if out[i].App != out[j].App {
			return out[i].App < out[j].App
		}
		return out[i].Class < out[j].Class
	})
	return out
}
