// Package mem models a node's physical page frames and the free-memory
// watermarks that drive page reclaim.
//
// Linux 2.2 — the kernel the paper patches — wakes the swap daemon when the
// free-page count drops below freepages.min and reclaims frames until it
// rises above freepages.high. Physical reproduces exactly that watermark
// mechanism in one rule: ReclaimTarget reports, for an allocation of n
// frames, whether it would take free memory below freepages.min and, if so,
// how many frames a reclaim pass must free to be back at freepages.high.
//
// Frames are counts, not a table: Take and Release move frames between the
// free pool and use, and nothing records which frame a page holds, because
// no decision, event or result depends on it. A configurable number of
// frames can be wired down (Lock), mirroring the paper's use of mlock() to
// shrink available memory so the NPB data sizes over-commit it.
package mem
