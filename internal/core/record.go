package core

import "math/bits"

// PageRecord is the adaptive page-in bookkeeping of Figure 4 for one
// process: the pages flushed from memory while it was stopped, one bit per
// page. The paper encodes the list as (base, count) runs to save kernel
// memory; the simulator keeps the set as a bitmap instead, because its
// replay reads the pages in ascending order whatever order they were
// flushed in (the disk sees the same requests), and an eviction reports a
// bitmap word of pages at a time.
type PageRecord struct {
	words []uint64 // bit i of word w records vpage 64·w+i
	pages int      // pages recorded since the last replay
}

// Add records the pages whose bits are set in mask, vpages 64·w to
// 64·w+63. Len counts pages as they are added, like the paper's list: a
// page added twice counts twice.
func (r *PageRecord) Add(w int, mask uint64) {
	if w >= len(r.words) {
		r.words = append(r.words, make([]uint64, w+1-len(r.words))...)
	}
	r.words[w] |= mask
	r.pages += bits.OnesCount64(mask)
}

// Len reports the number of recorded pages.
func (r *PageRecord) Len() int { return r.pages }

// Has reports whether vpage is recorded.
func (r *PageRecord) Has(vpage int) bool {
	w := vpage >> 6
	return w < len(r.words) && r.words[w]&(1<<(uint(vpage)&63)) != 0
}
