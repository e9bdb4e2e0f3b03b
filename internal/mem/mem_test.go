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
	if got := p.Take(3); got != 3 || p.NumFree() != 5 {
		t.Fatalf("Take(3) = %d, free %d", got, p.NumFree())
	}
	p.Release(2)
	if p.NumFree() != 7 {
		t.Fatalf("after Release(2): free %d, want 7", p.NumFree())
	}
	p.Release(1)
	if p.NumFree() != 8 || p.NumFrames() != 8 {
		t.Fatalf("after releasing all: free %d of %d", p.NumFree(), p.NumFrames())
	}
}

// Take past zero takes what is free and reports it.
func TestAllocExhaustion(t *testing.T) {
	p := New(5, 0, 0)
	if got := p.Take(3); got != 3 {
		t.Fatalf("Take(3) = %d", got)
	}
	if got := p.Take(4); got != 2 {
		t.Fatalf("Take(4) with 2 free = %d, want 2", got)
	}
	if got := p.Take(1); got != 0 || p.NumFree() != 0 {
		t.Fatalf("Take(1) with none free = %d, free %d", got, p.NumFree())
	}
}

func TestWatermarks(t *testing.T) {
	p := New(10, 3, 6)
	for _, tc := range []struct{ n, want int }{
		{0, 0},
		{7, 0},  // 3 free left: at min
		{8, 4},  // 2 free left: below min, back to 6 after taking 8
		{10, 6}, // everything
	} {
		if got := p.ReclaimTarget(tc.n); got != tc.want {
			t.Errorf("fresh ReclaimTarget(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	p.Take(8) // 2 free
	if got := p.ReclaimTarget(0); got != 4 {
		t.Fatalf("ReclaimTarget(0) with 2 free = %d, want 4", got)
	}
	if got := p.ReclaimTarget(1); got != 5 {
		t.Fatalf("ReclaimTarget(1) with 2 free = %d, want 5", got)
	}
	p.Release(2) // 4 free
	if got := p.ReclaimTarget(1); got != 0 {
		t.Fatalf("ReclaimTarget(1) with 4 free = %d, want 0", got)
	}
	// Headroom is the largest n that ReclaimTarget lets go: 4 free, min 3.
	if h := p.Headroom(); h != 1 || p.ReclaimTarget(h) != 0 || p.ReclaimTarget(h+1) == 0 {
		t.Fatalf("Headroom() with 4 free = %d", h)
	}
	p.Take(2) // 2 free, below min
	if h := p.Headroom(); h != 0 {
		t.Fatalf("Headroom() with 2 free = %d, want 0", h)
	}
}

func TestLock(t *testing.T) {
	p := New(10, 0, 0)
	p.Lock(6)
	if p.NumFree() != 4 || p.LockedFrames() != 6 {
		t.Fatalf("free=%d locked=%d", p.NumFree(), p.LockedFrames())
	}
	if got := p.Take(5); got != 4 {
		t.Fatalf("Take(5) with 6 of 10 locked = %d, want 4", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("released a wired frame")
			}
		}()
		p.Release(5)
	}()
	p.Release(4)
	if p.NumFree() != 4 {
		t.Fatalf("free after release = %d, want 4", p.NumFree())
	}
}

func TestLockTooManyPanics(t *testing.T) {
	p := New(4, 0, 0)
	p.Take(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.Lock(4)
}

// Releasing more frames than are in use is the count form of a double
// release.
func TestDoubleReleasePanics(t *testing.T) {
	p := New(4, 0, 0)
	p.Take(1)
	p.Release(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.Release(1)
}

func TestBadArgsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 0, 0) },
		func() { New(10, 5, 3) },
		func() { New(10, -1, 3) },
		func() { New(10, 3, 11) },
		func() { New(4, 0, 0).Take(-1) },
		func() { New(4, 0, 0).Release(-1) },
		func() { New(4, 0, 0).Lock(-1) },
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

// Property: random take/release/lock interleavings conserve frames: free +
// locked + in use is always the total, and Take never hands out more than
// was free.
func TestQuickFrameConsistency(t *testing.T) {
	type op struct {
		Kind uint8
		N    uint8
	}
	f := func(ops []op) bool {
		p := New(64, 4, 8)
		inUse := 0
		for _, o := range ops {
			n := int(o.N) % 20
			switch o.Kind % 3 {
			case 0:
				free := p.NumFree()
				got := p.Take(n)
				if got != min(n, free) {
					return false
				}
				inUse += got
			case 1:
				n = min(n, inUse)
				p.Release(n)
				inUse -= n
			case 2:
				if n <= p.NumFree() {
					p.Lock(n)
				}
			}
			if p.NumFree()+p.LockedFrames()+inUse != p.NumFrames() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}
