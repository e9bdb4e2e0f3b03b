package proc

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/vm"
)

// newVM builds a roomy single-node VM on the given engine so jitter tests
// control the seed.
func newVM(eng *sim.Engine) *vm.VM {
	phys := mem.New(1024, 8, 16)
	d := disk.New(eng, disk.DefaultParams())
	return vm.New(eng, phys, d, swap.New(1<<20), vm.Config{})
}

func TestJitterValidation(t *testing.T) {
	b := simpleBehavior(10, 1)
	b.Jitter = -0.1
	if err := b.Validate(); err == nil {
		t.Fatal("negative jitter accepted")
	}
	b.Jitter = 1.0
	if err := b.Validate(); err == nil {
		t.Fatal("jitter 1.0 accepted")
	}
	b.Jitter = 0.25
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJitterVariesIterationCost(t *testing.T) {
	run := func(seed int64, jitter float64) sim.Time {
		eng := sim.NewEngine(seed)
		r := &rig{eng, newVM(eng)}
		r.vm.NewProcess(1, 100)
		b := simpleBehavior(100, 20)
		b.Jitter = jitter
		p := New(r.eng, r.vm, 1, b, nil, nil)
		p.Start()
		r.eng.Run()
		if !p.Done() {
			t.Fatal("not done")
		}
		return p.Stats().FinishedAt
	}
	base := run(1, 0)
	j1 := run(1, 0.3)
	j2 := run(2, 0.3)
	if j1 == base {
		t.Fatal("jitter had no effect")
	}
	if j1 == j2 {
		t.Fatal("different seeds produced identical jittered runs")
	}
	// Same seed must reproduce exactly.
	if j1 != run(1, 0.3) {
		t.Fatal("jittered run not deterministic per seed")
	}
	// The jittered runtime stays within the jitter envelope of the base.
	lo, hi := base-base/3, base+base/3
	if j1 < lo || j1 > hi {
		t.Fatalf("jittered runtime %v outside [%v, %v]", j1, lo, hi)
	}
}

func TestJitterZeroIsExact(t *testing.T) {
	eng := sim.NewEngine(9)
	r := &rig{eng, newVM(eng)}
	r.vm.NewProcess(1, 50)
	p := New(r.eng, r.vm, 1, simpleBehavior(50, 4), nil, nil)
	p.Start()
	r.eng.Run()
	if got := p.Stats().ComputeTime; got != 4*50*10*sim.Microsecond {
		t.Fatalf("compute = %v; zero jitter must be exact", got)
	}
}
