// Package acct holds the differential accounting state behind the invariant
// auditor: one Counts struct per node, updated O(delta) at every state
// transition the conservation laws observe (page maps and unmaps, dirty-bit
// flips, write-back queueing, swap-region reservations, rank start/stop).
//
// The struct is a *shadow* of the simulated kernel's books, maintained from
// the transitions themselves rather than from the model's own counters, so
// the auditor can compare the two bookkeeping paths in O(1) per law instead
// of sweeping page tables. Version increments on every post; the auditor
// skips a node whose Version has not moved since its last check, which is
// what makes an Every=1 audit cadence affordable.
//
// Counts follow the same single-writer discipline as the rest of a node's
// state: the simulation goroutine posts transitions between events, and the
// auditor reads them at step boundaries on that same goroutine, so no
// synchronization is needed.
package acct

// Counts is one node's running conservation aggregates. All fields are
// exported so the auditor can read them and tests can corrupt them; only
// the owning node's layers may write them, through the post methods below.
type Counts struct {
	Mapped      int    // virtual pages holding a frame (resident + in-flight)
	Resident    int    // pages resident (frame mapped, no read in flight)
	InFlight    int    // pages whose swap read is still in progress
	Dirty       int    // resident pages whose frame carries the dirty bit
	WBPending   int    // queued-but-unlanded write-back pages
	RegionSlots int64  // swap slots covered by live regions
	RunCount    int    // ranks currently running on this node (must be 0 or 1)
	RunPID      int    // pid of the running rank when RunCount == 1
	Version     uint64 // bumped on every post; the auditor's skip gate
}

// MapResident posts n zero-fill allocations: pages that went straight to
// resident without touching the disk.
func (c *Counts) MapResident(n int) {
	c.Mapped += n
	c.Resident += n
	c.Version++
}

// MapInFlight posts n pages that received frames with swap reads pending.
func (c *Counts) MapInFlight(n int) {
	c.Mapped += n
	c.InFlight += n
	c.Version++
}

// ReadsLanded posts n in-flight pages whose swap reads completed.
func (c *Counts) ReadsLanded(n int) {
	c.InFlight -= n
	c.Resident += n
	c.Version++
}

// PagesDirtied posts n clean resident pages taking their first write.
func (c *Counts) PagesDirtied(n int) {
	c.Dirty += n
	c.Version++
}

// PagesCleaned posts n dirty pages whose dirty bits were cleared in place
// (background write-back without eviction).
func (c *Counts) PagesCleaned(n int) {
	c.Dirty -= n
	c.Version++
}

// WBQueued posts a page joining the write-back queue.
func (c *Counts) WBQueued() {
	c.WBPending++
	c.Version++
}

// WBLanded posts n write-back pages reaching the device.
func (c *Counts) WBLanded(n int) {
	c.WBPending -= n
	c.Version++
}

// Unmapped posts n evicted pages, dirtied of which carried the dirty bit
// when reclaimed.
func (c *Counts) Unmapped(n, dirtied int) {
	c.Mapped -= n
	c.Resident -= n
	c.Dirty -= dirtied
	c.Version++
}

// RegionReserved posts a swap-region reservation (or release, with a
// negative slot count).
func (c *Counts) RegionReserved(slots int64) {
	c.RegionSlots += slots
	c.Version++
}

// Dropped posts a bulk teardown (process destruction or node crash): the
// per-page deltas are counted from the page-state bitmaps as they are torn
// down, not taken from the model's counters, so a drifted model counter
// cannot hide here. slots is 0 for a crash (regions survive a reboot).
func (c *Counts) Dropped(mapped, resident, inFlight, dirtied, wbPending int, slots int64) {
	c.Mapped -= mapped
	c.Resident -= resident
	c.InFlight -= inFlight
	c.Dirty -= dirtied
	c.WBPending -= wbPending
	c.RegionSlots -= slots
	c.Version++
}

// RankStarted posts a rank beginning to run on this node.
func (c *Counts) RankStarted(pid int) {
	c.RunCount++
	c.RunPID = pid
	c.Version++
}

// RankStopped posts the running rank being descheduled or finishing.
func (c *Counts) RankStopped() {
	c.RunCount--
	if c.RunCount <= 0 {
		c.RunPID = 0
	}
	c.Version++
}

// Touch bumps the version without moving a counter, for transitions that
// change law inputs the shadow does not aggregate (stopped marks, selective
// outgoing designation, disk queue movement): the auditor re-evaluates the
// node's laws at the next check.
func (c *Counts) Touch() {
	c.Version++
}
