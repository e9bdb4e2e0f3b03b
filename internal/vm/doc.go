// Package vm implements the virtual-memory substrate the paper's adaptive
// mechanisms patch: per-process address spaces backed by swap regions,
// demand paging with grouped read-ahead, and watermark-driven page reclaim
// with a clock (LRU-approximation) victim scan — the Linux 2.2 behaviour
// described in §2 of the paper.
//
// The fault path mirrors the kernel's: a touch of a non-resident page
// first runs try_to_free_pages-style reclaim if free memory is below
// freepages.min (interleaving page-out I/O with the fault, exactly the
// inefficiency the paper attacks), then reads the faulted page plus a
// read-ahead group of contiguous pages in one disk transaction, and wakes
// the faulting process when the transfer completes.
//
// Victim selection is pluggable via SetVictimPolicy: PolicyDefault sweeps
// the process with the largest resident set using reference bits (the
// Linux 2.2 heuristic, which produces the paper's false evictions during
// job transitions), while PolicySelective takes victims exclusively from a
// designated outgoing process, oldest pages first (§3.1). The remaining
// mechanisms — aggressive page-out, adaptive page-in, background writing —
// are layered on top by package core using the exported building blocks
// ReclaimFrom, ReadPageSet and WriteBackDirty.
//
// All per-page state lives in the address space as bitmaps and arrays, and
// the paging paths work a bitmap word (64 pages) at a time: victims are
// (address space, word, mask) triples, the clock sweep ages a whole word
// of candidates where no stop can fall inside it, eviction clears state
// and counts pages per mask, the page-out hook (OnPageOut) reports a word
// of victims per call, and a page-in reads a bitmap of pages (ReadPageSet;
// ReadPagesIn takes a list and fills one).
//
// Pages are demand-zero on first touch: no disk read happens until a page
// has been written out at least once, after which its backing slot in the
// process's swap region holds the copy.
package vm
