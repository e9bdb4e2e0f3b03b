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

// Physical is a node's physical memory as counts: how many frames there
// are, how many are free and how many are wired down, plus the watermarks.
// No decision depends on which frame a page holds, so frames carry no
// identity: a page's owner records that it has one (package vm), and the
// frames in use are total - free - locked.
type Physical struct {
	total    int
	free     int
	locked   int
	freeMin  int // freepages.min
	freeHigh int // freepages.high
}

// New creates a node memory of nFrames free frames with the given
// watermarks. Conventional Linux 2.2 values scale min and high with memory
// size; the cluster package picks them. Requires 0 <= freeMin <= freeHigh
// <= nFrames.
func New(nFrames, freeMin, freeHigh int) *Physical {
	if nFrames <= 0 {
		panic(fmt.Sprintf("mem: nFrames must be positive, got %d", nFrames))
	}
	if freeMin < 0 || freeMin > freeHigh || freeHigh > nFrames {
		panic(fmt.Sprintf("mem: bad watermarks min=%d high=%d frames=%d", freeMin, freeHigh, nFrames))
	}
	return &Physical{total: nFrames, free: nFrames, freeMin: freeMin, freeHigh: freeHigh}
}

// NumFrames reports how many frames the node has.
func (p *Physical) NumFrames() int { return p.total }

// NumFree reports how many frames are free.
func (p *Physical) NumFree() int { return p.free }

// FreeMin and FreeHigh report the watermarks.
func (p *Physical) FreeMin() int  { return p.freeMin }
func (p *Physical) FreeHigh() int { return p.freeHigh }

// ReclaimTarget is the Linux 2.2 try_to_free_pages trigger for taking n
// frames: 0 when free memory stays at or above freepages.min afterwards,
// else how many frames reclaim must free so that free memory is back at
// freepages.high once the n are taken (high + n - free, positive because
// high >= min).
func (p *Physical) ReclaimTarget(n int) int {
	if p.free-n >= p.freeMin {
		return 0
	}
	return p.freeHigh + n - p.free
}

// Headroom reports how many frames can be taken without triggering
// reclaim: the largest n with ReclaimTarget(n) == 0, or 0 when there is
// none.
func (p *Physical) Headroom() int { return max(p.free-p.freeMin, 0) }

// Lock wires down n frames so they can never be taken, mimicking the
// paper's mlock() trick for shrinking usable memory. It panics if fewer
// than n frames are free.
func (p *Physical) Lock(n int) {
	if n < 0 || n > p.free {
		panic(fmt.Sprintf("mem: cannot lock %d frames with %d free", n, p.free))
	}
	p.free -= n
	p.locked += n
}

// LockedFrames reports how many frames are wired down.
func (p *Physical) LockedFrames() int { return p.locked }

// Take takes up to n free frames and reports how many it took: n, or every
// free frame when fewer are free. Callers that took fewer than they need
// reclaim and retry.
func (p *Physical) Take(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("mem: Take(%d)", n))
	}
	n = min(n, p.free)
	p.free -= n
	return n
}

// Release returns n frames in use to the free pool. Releasing more frames
// than are in use (a double release) panics.
func (p *Physical) Release(n int) {
	if inUse := p.total - p.free - p.locked; n < 0 || n > inUse {
		panic(fmt.Sprintf("mem: release of %d frames with %d in use", n, inUse))
	}
	p.free += n
}
