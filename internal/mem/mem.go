package mem

import "fmt"

// PageSize is the page size in bytes (4 KiB, as on the paper's machines).
const PageSize = 4096

// PagesPerMB is the number of pages in one mebibyte.
const PagesPerMB = (1 << 20) / PageSize

// PagesFromMB converts mebibytes to pages.
func PagesFromMB(mb int) int { return mb * PagesPerMB }

// MBFromPages converts pages to (floating) mebibytes.
func MBFromPages(pages int) float64 { return float64(pages) / PagesPerMB }

// KBFromPages converts pages to kibibytes.
func KBFromPages(pages int) float64 { return float64(pages) * PageSize / 1024 }

// FrameID indexes a physical frame.
type FrameID int32

// NoFrame marks "not resident".
const NoFrame FrameID = -1

// Frame is one physical page frame's reverse map: who owns it. The page's
// reference, dirty and age state lives with the owner's address space
// (package vm), indexed by virtual page.
type Frame struct {
	PID    int   // owning process, 0 when free
	VPage  int32 // owner's virtual page number
	Locked bool  // wired (mlock'd) — never reclaimable
}

// Free reports whether the frame is unowned.
func (f *Frame) Free() bool { return f.PID == 0 && !f.Locked }

// Physical is a node's frame table plus watermark state.
type Physical struct {
	frames   []Frame
	freeList []FrameID
	freeMin  int // freepages.min
	freeHigh int // freepages.high
	locked   int
}

// New creates a frame table of nFrames with the given watermarks.
// Conventional Linux 2.2 values scale min and high with memory size; the
// cluster package picks them. Requires 0 <= freeMin <= freeHigh <= nFrames.
func New(nFrames, freeMin, freeHigh int) *Physical {
	if nFrames <= 0 {
		panic(fmt.Sprintf("mem: nFrames must be positive, got %d", nFrames))
	}
	if freeMin < 0 || freeMin > freeHigh || freeHigh > nFrames {
		panic(fmt.Sprintf("mem: bad watermarks min=%d high=%d frames=%d", freeMin, freeHigh, nFrames))
	}
	p := &Physical{
		frames:   make([]Frame, nFrames),
		freeList: make([]FrameID, 0, nFrames),
		freeMin:  freeMin,
		freeHigh: freeHigh,
	}
	// Free list in reverse so low frame numbers are handed out first.
	for i := nFrames - 1; i >= 0; i-- {
		p.freeList = append(p.freeList, FrameID(i))
	}
	return p
}

// NumFrames reports the frame-table size.
func (p *Physical) NumFrames() int { return len(p.frames) }

// NumFree reports how many frames are on the free list.
func (p *Physical) NumFree() int { return len(p.freeList) }

// FreeMin and FreeHigh report the watermarks.
func (p *Physical) FreeMin() int  { return p.freeMin }
func (p *Physical) FreeHigh() int { return p.freeHigh }

// BelowMin reports whether free memory has dropped below freepages.min,
// i.e. whether an allocation must first reclaim.
func (p *Physical) BelowMin() bool { return len(p.freeList) < p.freeMin }

// NeedReclaim reports how many frames reclaim must free to reach
// freepages.high (0 when already above it).
func (p *Physical) NeedReclaim() int {
	n := p.freeHigh - len(p.freeList)
	if n < 0 {
		return 0
	}
	return n
}

// Lock wires down n frames so they can never be allocated, mimicking the
// paper's mlock() trick for shrinking usable memory. It panics if fewer
// than n frames are free.
func (p *Physical) Lock(n int) {
	if n < 0 || n > len(p.freeList) {
		panic(fmt.Sprintf("mem: cannot lock %d frames with %d free", n, len(p.freeList)))
	}
	for i := 0; i < n; i++ {
		id := p.pop()
		p.frames[id].Locked = true
		p.locked++
	}
}

// LockedFrames reports how many frames are wired down.
func (p *Physical) LockedFrames() int { return p.locked }

func (p *Physical) pop() FrameID {
	id := p.freeList[len(p.freeList)-1]
	p.freeList = p.freeList[:len(p.freeList)-1]
	return id
}

// Alloc takes a free frame for (pid, vpage). It reports NoFrame, false when
// the free list is empty; callers must reclaim and retry. pid must be
// positive — PID 0 denotes a free frame.
func (p *Physical) Alloc(pid int, vpage int32) (FrameID, bool) {
	if pid <= 0 {
		panic(fmt.Sprintf("mem: Alloc with non-positive pid %d", pid))
	}
	if len(p.freeList) == 0 {
		return NoFrame, false
	}
	id := p.pop()
	p.frames[id] = Frame{PID: pid, VPage: vpage}
	return id, true
}

// Release returns a frame to the free list. The frame must be owned.
func (p *Physical) Release(id FrameID) {
	f := p.frame(id)
	if f.Free() {
		panic(fmt.Sprintf("mem: double release of frame %d", id))
	}
	if f.Locked {
		panic(fmt.Sprintf("mem: release of locked frame %d", id))
	}
	*f = Frame{}
	p.freeList = append(p.freeList, id)
}

// Frame returns the bookkeeping entry for id. The pointer stays valid for
// the lifetime of the Physical.
func (p *Physical) Frame(id FrameID) *Frame { return p.frame(id) }

func (p *Physical) frame(id FrameID) *Frame {
	if id < 0 || int(id) >= len(p.frames) {
		badFrame(id)
	}
	return &p.frames[id]
}

// badFrame lives outside frame so the range check stays within the inlining
// budget; per-page loops otherwise pay a call for every Frame lookup.
func badFrame(id FrameID) {
	panic(fmt.Sprintf("mem: frame id %d out of range", id))
}

// Frames exposes the frame table itself for hot-path iteration: per-page
// loops index it directly instead of calling Frame per page. The slice
// aliases the live table — entries may be mutated, but the slice itself must
// not be grown or retained across Physical lifetimes.
func (p *Physical) Frames() []Frame { return p.frames }

// Validate checks internal consistency (unowned frames vs. the free list);
// used by tests. Per-process ownership counts are the owner's business: the
// VM checks its mapped counters against these labels.
func (p *Physical) Validate() error {
	freeOwned := 0
	for i := range p.frames {
		if f := &p.frames[i]; !f.Locked && f.PID <= 0 {
			freeOwned++
		}
	}
	if freeOwned != len(p.freeList) {
		return fmt.Errorf("mem: %d unowned frames but free list has %d", freeOwned, len(p.freeList))
	}
	onList := map[FrameID]bool{}
	for _, id := range p.freeList {
		if onList[id] {
			return fmt.Errorf("mem: frame %d twice on free list", id)
		}
		onList[id] = true
		if !p.frames[id].Free() {
			return fmt.Errorf("mem: owned frame %d on free list", id)
		}
	}
	return nil
}
