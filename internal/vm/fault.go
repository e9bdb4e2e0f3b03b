package vm

import (
	"fmt"
	"sort"

	"repro/internal/disk"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ResidentRun reports how many consecutive pages starting at vpage are
// resident (capped at max). The process reference engine uses it to charge
// whole runs of compute in one event.
func (v *VM) ResidentRun(pid, vpage, max int) int {
	as := v.mustProc(pid)
	end := vpage + max
	if end > as.numPages {
		end = as.numPages
	}
	frames, inFlight := as.frames, as.inFlight
	vp := vpage
	for vp < end && frames[vp] != mem.NoFrame && !inFlight[vp] {
		vp++
	}
	return vp - vpage
}

// TouchResident marks [vpage, vpage+n) referenced (and dirty when write is
// set), updating per-page ages and the working-set estimator. Every page in
// the range must be resident.
func (v *VM) TouchResident(pid, vpage, n int, write bool) {
	v.TouchResidentAt(pid, vpage, n, write, v.eng.Now())
}

// TouchResidentAt is TouchResident with an explicit reference timestamp.
// The process engine's touch-run fast-forwarding uses it to apply a chunk's
// touches with the clock value the chunk would have seen had its compute
// events fired one by one, so age ordering (frame LastUse) is identical to
// the un-collapsed schedule. at must not precede the current clock.
func (v *VM) TouchResidentAt(pid, vpage, n int, write bool, at sim.Time) {
	as := v.mustProc(pid)
	now := at
	frames, inFlight := as.frames, as.inFlight
	touchGen, curGen := as.touchGen, as.curGen
	table := v.phys.Frames()
	for vp := vpage; vp < vpage+n; vp++ {
		fid := frames[vp]
		if fid == mem.NoFrame || inFlight[vp] {
			panic(fmt.Sprintf("vm: TouchResident(%d, %d): page not resident", pid, vp))
		}
		f := &table[fid]
		f.Referenced = true
		f.LastUse = now
		if write {
			if as.bgClean[vp] {
				as.bgClean[vp] = false
				v.stats.WastedBGWrite++
			}
			if !f.Dirty {
				f.Dirty = true
				as.setDirtyBit(vp)
				if v.acct != nil {
					v.acct.PageDirtied()
				}
			}
		}
		if touchGen[vp] != curGen {
			touchGen[vp] = curGen
			as.touched++
		}
	}
	as.raiseDirtyBound(vpage, vpage+n, now)
}

// TouchRun touches up to max consecutive resident pages starting at vpage
// in one pass, stopping at the first non-resident page. It is exactly
// ResidentRun followed by TouchResidentAt over the reported run (same pages,
// same order, same timestamp) and returns the run length; the process
// engine's touch step uses it to avoid walking each chunk twice.
func (v *VM) TouchRun(pid, vpage, max int, write bool, at sim.Time) int {
	as := v.mustProc(pid)
	end := vpage + max
	if end > as.numPages {
		end = as.numPages
	}
	frames, inFlight := as.frames, as.inFlight
	touchGen, curGen := as.touchGen, as.curGen
	table := v.phys.Frames()
	vp := vpage
	for vp < end {
		fid := frames[vp]
		if fid == mem.NoFrame || inFlight[vp] {
			break
		}
		f := &table[fid]
		f.Referenced = true
		f.LastUse = at
		if write {
			if as.bgClean[vp] {
				as.bgClean[vp] = false
				v.stats.WastedBGWrite++
			}
			if !f.Dirty {
				f.Dirty = true
				as.setDirtyBit(vp)
				if v.acct != nil {
					v.acct.PageDirtied()
				}
			}
		}
		if touchGen[vp] != curGen {
			touchGen[vp] = curGen
			as.touched++
		}
		vp++
	}
	as.raiseDirtyBound(vpage, vp, at)
	return vp - vpage
}

// Fault handles a reference to vpage that the caller found non-resident (a
// resident page is a no-op minor fault). resume is invoked — possibly after
// queueing and disk time — once the page is resident. write only affects
// accounting; the caller marks dirtiness by re-touching after resume.
func (v *VM) Fault(pid, vpage int, write bool, resume func()) {
	as := v.mustProc(pid)
	if vpage < 0 || vpage >= as.numPages {
		panic(fmt.Sprintf("vm: fault at vpage %d outside footprint %d of pid %d", vpage, as.numPages, pid))
	}
	start := v.eng.Now()
	var span, parent obs.SpanID
	if v.obs != nil {
		// The fault span parents to the switch epoch current at trap time,
		// which is what lets a post-switch fault storm be attributed to the
		// switch. Its ID is reserved now — the disk reads the fault triggers
		// parent to it — but the span itself is recorded retrospectively at
		// wakeup: faults are by far the most numerous span kind, and the
		// reserve/emit pair skips the tracer's open-span bookkeeping.
		parent = v.obs.Tracer.Epoch()
		span = v.obs.Tracer.Reserve()
	}
	if as.led != nil && as.swEvict != nil && !as.IsResident(vpage) && as.swEvict[vpage] {
		// The page was evicted while the owner was descheduled (or is still
		// in flight from the switch's prefetch): the stall the process just
		// entered is switch overhead, not an ordinary fault stall.
		as.led.Retag(obs.CatSwitch)
	}
	finish := func() {
		stall := v.eng.Now().Sub(start)
		v.stats.FaultStall += stall
		as.stats.FaultStall += stall
		if v.obs != nil {
			v.obs.FaultStall.ObserveMicros(int64(stall))
			v.obs.Tracer.EmitReserved(span, obs.SpanFault, parent, v.obs.Node, pid, start, v.eng.Now(), 0)
		}
		resume()
	}

	// Already resident: minor fault (racing touch), just pay the trap cost.
	if as.IsResident(vpage) {
		v.minorFault(as)
		v.eng.ScheduleDetached(v.cfg.FaultOverhead, finish)
		return
	}
	// Read already in flight (e.g. adaptive page-in prefetch): wait for it.
	if as.inFlight[vpage] {
		v.minorFault(as)
		as.waiters[vpage] = append(as.waiters[vpage], finish)
		return
	}
	// Demand-zero page: no disk involved. If not a single frame can be
	// freed right now (memory pinned by in-flight reads), retry shortly.
	if !as.backed(vpage) {
		v.minorFault(as)
		v.stats.ZeroFills++
		as.stats.ZeroFills++
		epoch := v.epoch
		var attempt func()
		attempt = func() {
			if v.epoch != epoch {
				// The node crashed while this fill was waiting for memory;
				// release the process so it can re-fault after the restart.
				finish()
				return
			}
			v.ensureFree(1)
			fid, ok := v.phys.Alloc(pid, int32(vpage), v.eng.Now())
			if !ok {
				v.eng.ScheduleDetached(reclaimRetryDelay, attempt)
				return
			}
			v.phys.Frame(fid).Age = uint8(v.cfg.AgeStart)
			as.frames[vpage] = fid
			as.resident++
			v.residentSum++
			if v.acct != nil {
				v.acct.MapResident()
			}
			v.eng.ScheduleDetached(v.cfg.FaultOverhead+v.cfg.ZeroFillCost, finish)
		}
		attempt()
		return
	}

	// Major fault: read the page plus a read-ahead group of contiguous
	// swap-backed neighbours, as the Linux 2.2 swap-in path does.
	v.stats.MajorFaults++
	as.stats.MajorFaults++
	if v.obs != nil {
		v.obs.MajorFaults.Inc()
	}
	group := append(v.getGroup(), vpage)
	for next := vpage + 1; next < as.numPages && len(group) < v.cfg.ReadAhead; next++ {
		if as.IsResident(next) || as.inFlight[next] || !as.backed(next) {
			break
		}
		group = append(group, next)
	}
	as.waiters[vpage] = append(as.waiters[vpage], finish)
	v.readIn(as, group, disk.Demand, span, nil)
}

// minorFault accounts one fault satisfied without disk I/O.
func (v *VM) minorFault(as *AddressSpace) {
	v.stats.MinorFaults++
	as.stats.MinorFaults++
	if v.obs != nil {
		v.obs.MinorFaults.Inc()
	}
}

// ReadPagesIn brings the listed pages of pid into memory with batched,
// coalesced disk reads (the adaptive page-in primitive). Pages that are
// resident, already in flight, or demand-zero are skipped. onDone, if
// non-nil, fires once every transfer issued by this call has completed;
// it fires immediately if nothing needed reading.
func (v *VM) ReadPagesIn(pid int, vpages []int, prio disk.Priority, onDone func()) {
	v.ReadPagesInTraced(pid, vpages, prio, 0, onDone)
}

// ReadPagesInTraced is ReadPagesIn with a causal parent span stamped onto
// the disk requests it issues (0 for none).
func (v *VM) ReadPagesInTraced(pid int, vpages []int, prio disk.Priority, parent obs.SpanID, onDone func()) {
	as := v.mustProc(pid)
	group := v.getGroup()
	for _, vp := range vpages {
		if vp < 0 || vp >= as.numPages {
			panic(fmt.Sprintf("vm: ReadPagesIn vpage %d outside footprint of pid %d", vp, pid))
		}
		if as.IsResident(vp) || as.inFlight[vp] || !as.backed(vp) {
			continue
		}
		group = append(group, vp)
	}
	if len(group) == 0 {
		v.putGroup(group)
		if onDone != nil {
			onDone()
		}
		return
	}
	sort.Ints(group)
	v.readIn(as, group, prio, parent, onDone)
}

// reclaimRetryDelay is how long a page-in waits when not a single frame can
// be freed (typically because every frame is pinned by in-flight reads) —
// the analogue of sleeping on kswapd.
const reclaimRetryDelay = 500 * sim.Microsecond

// readIn allocates frames for the group (reclaiming first if needed),
// splits it into bounded disk transactions and marks pages resident as each
// transaction completes. When memory is momentarily unfreeable the read is
// retried; pages that become resident through other transfers in the
// meantime are dropped from the group (their waiters fire with those
// transfers).
//
// readIn owns group: the buffer comes from the VM's pool and is returned to
// it once no transfer or retry can reference it any longer.
func (v *VM) readIn(as *AddressSpace, group []int, prio disk.Priority, parent obs.SpanID, onDone func()) {
	// Re-filter: on a retry some pages may have landed via other requests.
	filtered := v.getGroup()
	for _, vp := range group {
		if !as.IsResident(vp) && !as.inFlight[vp] && as.backed(vp) {
			filtered = append(filtered, vp)
		}
	}
	v.putGroup(group)
	group = filtered
	if len(group) == 0 {
		v.putGroup(group)
		if onDone != nil {
			onDone()
		}
		return
	}
	avail := v.ensureFree(len(group))
	if avail < len(group) {
		if avail < 1 {
			epoch := v.epoch
			v.eng.ScheduleDetached(reclaimRetryDelay, func() {
				if v.epoch != epoch {
					// Node crashed while waiting for memory: abandon the
					// read (waiters were resumed by Crash).
					v.putGroup(group)
					if onDone != nil {
						onDone()
					}
					return
				}
				v.readIn(as, group, prio, parent, onDone)
			})
			return
		}
		group = group[:avail]
	}
	now := v.eng.Now()
	slots := v.slotScratch[:0]
	for i, vp := range group {
		fid, ok := v.phys.Alloc(as.pid, int32(vp), now)
		if !ok {
			// ensureFree guaranteed avail frames; trim to what we got.
			group = group[:i]
			break
		}
		v.phys.Frame(fid).Age = uint8(v.cfg.AgeStart)
		as.frames[vp] = fid
		as.inFlight[vp] = true
		slots = append(slots, as.region.SlotFor(vp))
	}
	v.slotScratch = slots[:0]
	if len(group) == 0 {
		v.putGroup(group)
		if onDone != nil {
			onDone()
		}
		return
	}
	if v.acct != nil {
		v.acct.MapInFlight(len(group))
	}
	// Slots ascend with group (swap regions are contiguous), so coalesced
	// runs taken in order correspond to ascending chunks of group.
	runs := v.coalesceSplit(slots)

	// Issue one request per run; completion marks that run's pages. The
	// group buffer is recycled when the last transfer lands.
	remaining := len(runs)
	idx := 0
	for _, r := range runs {
		pages := group[idx : idx+r.N]
		idx += r.N
		v.dsk.Submit(&disk.Request{
			Runs:   []disk.Run{r},
			Prio:   prio,
			Parent: parent,
			Done: func(sim.Duration) {
				v.completeRead(as, pages)
				remaining--
				if remaining == 0 {
					v.putGroup(group)
					if onDone != nil {
						onDone()
					}
				}
			},
		})
	}
}

func (v *VM) completeRead(as *AddressSpace, pages []int) {
	n := 0
	for _, vp := range pages {
		if !as.inFlight[vp] {
			continue // process destroyed or page stolen mid-flight
		}
		as.inFlight[vp] = false
		as.resident++
		v.residentSum++
		n++
		if as.swEvict != nil {
			as.swEvict[vp] = false // resident again: next eviction decides anew
		}
		if ws := as.waiters[vp]; len(ws) > 0 {
			delete(as.waiters, vp)
			for _, w := range ws {
				w()
			}
		}
	}
	v.stats.PagesIn += int64(n)
	as.stats.PagesIn += int64(n)
	if v.acct != nil && n > 0 {
		// Pages skipped above were already dropped from the shadow by the
		// crash or teardown that stole them.
		v.acct.ReadsLanded(n)
	}
	if v.obs != nil {
		v.obs.PagesIn.Add(float64(n))
	}
}
