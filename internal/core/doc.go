// Package core implements the paper's contribution: the four adaptive
// paging mechanisms layered on the vm substrate, exposed through the same
// kernel API the paper's prototype added to Linux 2.2 (§3.5):
//
//	AdaptivePageOut(inPID, outPID, wsPages) — selective + aggressive page-out
//	AdaptivePageIn(inPID, outPID, wsPages)  — adaptive page-in (prefault)
//	StartBGWrite(pid) / StopBGWrite()       — background dirty-page writing
//
// A Kernel is bound to one node's VM. Which mechanisms each call actually
// performs is governed by a Features set, so a gang scheduler can drive the
// same call sequence for every policy combination the paper evaluates
// (orig, ai, so, so/ao, so/ao/bg, so/ao/ai/bg) and the Kernel no-ops the
// disabled parts — mirroring how the paper's user-level scheduler passes
// parameters through /dev/kmem into kernel mechanisms that may or may not
// be compiled in.
//
// The adaptive page-in recorder follows Figure 4: pages are recorded as
// they are flushed out while their owner is stopped, and prefaulted in
// large coalesced disk reads when the owner is scheduled again. The paper
// run-length encodes the record as (base, count) pairs to bound kernel
// memory; here a PageRecord is a bitmap over the process's pages. The VM's
// page-out hook reports a bitmap word of victims at a time, which the
// record ORs in, and the replay hands the bitmap to vm.ReadPageSet, which
// reads the pages in ascending order: record order never reaches the disk.
package core
