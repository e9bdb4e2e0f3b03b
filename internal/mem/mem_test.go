package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUnitConversions(t *testing.T) {
	if PagesPerMB != 256 {
		t.Fatalf("PagesPerMB = %d", PagesPerMB)
	}
	if PagesFromMB(4) != 1024 {
		t.Fatalf("PagesFromMB(4) = %d", PagesFromMB(4))
	}
	if MBFromPages(512) != 2.0 {
		t.Fatalf("MBFromPages(512) = %v", MBFromPages(512))
	}
	if KBFromPages(3) != 12 {
		t.Fatalf("KBFromPages(3) = %v", KBFromPages(3))
	}
}

func TestAllocRelease(t *testing.T) {
	p := New(8, 1, 2)
	id, ok := p.Alloc(42, 7)
	if !ok || id == NoFrame {
		t.Fatal("alloc failed")
	}
	f := p.Frame(id)
	if f.PID != 42 || f.VPage != 7 || f.Locked {
		t.Fatalf("frame = %+v", *f)
	}
	if p.NumFree() != 7 {
		t.Fatalf("free=%d", p.NumFree())
	}
	p.Release(id)
	if *p.Frame(id) != (Frame{}) || p.NumFree() != 8 {
		t.Fatalf("after release: frame=%+v free=%d", *p.Frame(id), p.NumFree())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLowFrameNumbersFirst(t *testing.T) {
	p := New(4, 0, 0)
	id, _ := p.Alloc(1, 0)
	if id != 0 {
		t.Fatalf("first frame = %d, want 0", id)
	}
}

func TestAllocExhaustion(t *testing.T) {
	p := New(2, 0, 0)
	p.Alloc(1, 0)
	p.Alloc(1, 1)
	if _, ok := p.Alloc(1, 2); ok {
		t.Fatal("alloc succeeded with no free frames")
	}
}

func TestWatermarks(t *testing.T) {
	p := New(10, 3, 6)
	if p.BelowMin() {
		t.Fatal("fresh table below min")
	}
	if p.NeedReclaim() != 0 {
		t.Fatalf("fresh NeedReclaim = %d", p.NeedReclaim())
	}
	var ids []FrameID
	for i := 0; i < 8; i++ { // 2 free left
		id, _ := p.Alloc(1, int32(i))
		ids = append(ids, id)
	}
	if !p.BelowMin() {
		t.Fatal("2 free < min 3, BelowMin should hold")
	}
	if p.NeedReclaim() != 4 { // to reach 6 free
		t.Fatalf("NeedReclaim = %d, want 4", p.NeedReclaim())
	}
	p.Release(ids[0])
	p.Release(ids[1])
	if p.BelowMin() {
		t.Fatal("4 free >= min 3")
	}
}

func TestLock(t *testing.T) {
	p := New(10, 0, 0)
	p.Lock(6)
	if p.NumFree() != 4 || p.LockedFrames() != 6 {
		t.Fatalf("free=%d locked=%d", p.NumFree(), p.LockedFrames())
	}
	for i := 0; i < 4; i++ {
		if _, ok := p.Alloc(1, int32(i)); !ok {
			t.Fatal("alloc of unlocked frame failed")
		}
	}
	if _, ok := p.Alloc(1, 99); ok {
		t.Fatal("allocated a locked frame")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLockTooManyPanics(t *testing.T) {
	p := New(4, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.Lock(5)
}

func TestDoubleReleasePanics(t *testing.T) {
	p := New(4, 0, 0)
	id, _ := p.Alloc(1, 0)
	p.Release(id)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.Release(id)
}

func TestBadArgsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 0, 0) },
		func() { New(10, 5, 3) },
		func() { New(10, -1, 3) },
		func() { New(10, 3, 11) },
		func() { New(4, 0, 0).Alloc(0, 0) },
		func() { New(4, 0, 0).Alloc(-3, 0) },
		func() { New(4, 0, 0).Frame(99) },
		func() { New(4, 0, 0).Frame(-2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: random alloc/release interleavings keep the frame table
// consistent and never hand out the same frame twice.
func TestQuickFrameConsistency(t *testing.T) {
	type op struct {
		Alloc bool
		PID   uint8
		Which uint8
	}
	f := func(ops []op) bool {
		p := New(64, 4, 8)
		var held []FrameID
		for _, o := range ops {
			if o.Alloc {
				pid := int(o.PID)%5 + 1
				if id, ok := p.Alloc(pid, 0); ok {
					for _, h := range held {
						if h == id {
							return false
						}
					}
					held = append(held, id)
				}
			} else if len(held) > 0 {
				i := int(o.Which) % len(held)
				p.Release(held[i])
				held = append(held[:i], held[i+1:]...)
			}
			if err := p.Validate(); err != nil {
				return false
			}
		}
		return p.NumFree() == 64-len(held)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}
