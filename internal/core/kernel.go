package core

import (
	"fmt"
	"math/bits"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Config tunes the adaptive mechanisms. Zero fields take defaults.
type Config struct {
	// BGWriteBatch is how many dirty pages each background-writer pass
	// queues; small batches keep the daemon's disk requests short so demand
	// paging is not delayed behind them.
	BGWriteBatch int
	// BGWriteInterval is the daemon's wake-up period.
	BGWriteInterval sim.Duration
}

// DefaultConfig returns the tuning used in the experiments.
func DefaultConfig() Config {
	return Config{
		BGWriteBatch:    256,
		BGWriteInterval: 100 * sim.Millisecond,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.BGWriteBatch <= 0 {
		c.BGWriteBatch = d.BGWriteBatch
	}
	if c.BGWriteInterval <= 0 {
		c.BGWriteInterval = d.BGWriteInterval
	}
}

// Stats counts adaptive-mechanism activity on one node.
type Stats struct {
	SwitchEvictions  int64 // pages evicted by aggressive page-out calls
	PrefetchedPages  int64 // pages scheduled by adaptive page-in
	PrefetchRequests int64 // AdaptivePageIn calls that issued I/O
	BGWritePasses    int64 // background-writer wakeups that queued writes
	RecordedPages    int64 // pages appended to page records
}

// Kernel is the adaptive-paging extension bound to one node's VM, playing
// the role of the patched kernel module of Figure 5.
type Kernel struct {
	eng      *sim.Engine
	vm       *vm.VM
	features Features
	cfg      Config

	records map[int]*PageRecord
	stopped map[int]bool

	// Evictions come in stretches of one process, so onPageOut resolves
	// its pid once per stretch: lastRec is the record lastPID's pages go
	// to, nil when they are not recorded. lastPID 0 means nothing is
	// cached; every change to stopped or records drops the cache.
	lastPID int
	lastRec *PageRecord

	bgPID   int // process being background-written, 0 when inactive
	bgTimer *sim.Event
	// bgPassFn is bgPass bound once: each pass re-arms bgTimer with it, so
	// a steady writer allocates nothing per pass.
	bgPassFn func()

	// obs, when non-nil, receives PrefaultBatch / BGWriteTick events and
	// the page-out drain and prefault spans.
	obs *obs.NodeObs

	stats Stats
}

// NewKernel binds an adaptive-paging kernel to v, chaining onto any
// existing page-out hook.
func NewKernel(eng *sim.Engine, v *vm.VM, features Features, cfg Config) *Kernel {
	cfg.fillDefaults()
	k := &Kernel{
		eng:      eng,
		vm:       v,
		features: features,
		cfg:      cfg,
		records:  make(map[int]*PageRecord),
		stopped:  make(map[int]bool),
	}
	k.bgPassFn = k.bgPass
	prev := v.OnPageOut
	v.OnPageOut = func(pid, word int, mask uint64) {
		k.onPageOut(pid, word, mask)
		if prev != nil {
			prev(pid, word, mask)
		}
	}
	if features.Selective {
		v.SetVictimPolicy(vm.PolicySelective)
	}
	return k
}

// Features reports the enabled mechanism set.
func (k *Kernel) Features() Features { return k.features }

// Stats returns a copy of the mechanism counters.
func (k *Kernel) Stats() Stats { return k.stats }

// VM exposes the bound substrate.
func (k *Kernel) VM() *vm.VM { return k.vm }

// SetObs attaches the node's observability instruments (nil to detach).
func (k *Kernel) SetObs(o *obs.NodeObs) { k.obs = o }

func (k *Kernel) onPageOut(pid, word int, mask uint64) {
	if !k.features.AdaptiveIn {
		return
	}
	if pid != k.lastPID {
		k.lastPID, k.lastRec = pid, nil
		if k.stopped[pid] {
			k.lastRec = k.records[pid]
			if k.lastRec == nil {
				k.lastRec = &PageRecord{}
				k.records[pid] = k.lastRec
			}
		}
	}
	if k.lastRec == nil {
		return
	}
	k.lastRec.Add(word, mask)
	k.stats.RecordedPages += int64(bits.OnesCount64(mask))
}

// dropCache forgets onPageOut's resolved pid.
func (k *Kernel) dropCache() { k.lastPID, k.lastRec = 0, nil }

// MarkStopped tells the kernel pid has been de-scheduled; evictions of its
// pages from now on are recorded for adaptive page-in.
func (k *Kernel) MarkStopped(pid int) {
	k.stopped[pid] = true
	k.dropCache()
	k.vm.NoteStopped(pid, true)
}

// MarkRunning tells the kernel pid is running; its evictions (intra-job
// paging) are not recorded, per §2's requirement that intra-job paging stay
// under the original policy.
func (k *Kernel) MarkRunning(pid int) {
	delete(k.stopped, pid)
	k.dropCache()
	k.vm.NoteStopped(pid, false)
}

// IsStopped reports whether pid is currently marked de-scheduled. Exposed
// for the invariant auditor (a Running process must never carry the stopped
// mark — evictions of a runner must not feed adaptive page-in records).
func (k *Kernel) IsStopped(pid int) bool { return k.stopped[pid] }

// CrashReset models the kernel module dying with its node: every adaptive
// page-in record (the flush lists of Figure 4) and the stopped-process map
// are lost, and the background writer halts. The feature set itself
// survives — it is rebuilt from the boot configuration on restart.
func (k *Kernel) CrashReset() {
	k.records = make(map[int]*PageRecord)
	k.stopped = make(map[int]bool)
	k.dropCache()
	k.StopBGWrite()
}

// Forget drops any recorded state for pid (process exit).
func (k *Kernel) Forget(pid int) {
	delete(k.records, pid)
	delete(k.stopped, pid)
	k.dropCache()
	if k.bgPID == pid {
		k.StopBGWrite()
	}
}

// AdaptivePageOut is the kernel API of §3.5. It designates outPID as the
// victim source for selective page-out and, when aggressive page-out is
// enabled, immediately evicts outPID's pages until enough frames are free
// for the incoming working set (Figure 3). wsPages may be 0 to use the
// kernel's own estimate from inPID's previous quantum. It returns the
// number of pages evicted synchronously.
func (k *Kernel) AdaptivePageOut(inPID, outPID, wsPages int) int {
	if inPID == outPID {
		panic(fmt.Sprintf("core: AdaptivePageOut with inPID == outPID == %d", inPID))
	}
	if outPID == 0 || k.vm.Process(outPID) == nil {
		// No outgoing process (previous job exited): nothing to designate
		// or evict.
		if k.features.Selective {
			k.vm.SetOutgoing(0)
		}
		return 0
	}
	if k.features.Selective {
		k.vm.SetOutgoing(outPID)
	}
	if !k.features.Aggressive {
		return 0
	}
	ws := wsPages
	if ws <= 0 {
		ws = k.vm.WSEstimate(inPID)
	}
	need := ws - k.vm.Phys().NumFree()
	if need <= 0 {
		return 0
	}
	var tr *obs.Tracer
	if k.obs != nil {
		tr = k.obs.Tracer
	}
	if tr != nil {
		// The drain span stays open until the last dirty write-back this
		// eviction pass queued reaches the device (closed via the VM's drain
		// latch); it is zero-width when every evicted page was clean.
		span := tr.Begin(k.eng.Now(), obs.SpanPageOutDrain, tr.Epoch(), k.obs.Node, "", outPID)
		k.vm.BeginDrain(tr, span)
	}
	evicted := k.vm.ReclaimFrom(outPID, need)
	k.vm.EndDrain(k.eng.Now())
	k.stats.SwitchEvictions += int64(evicted)
	return evicted
}

// AdaptivePageIn is the kernel API of §3.5: it replays inPID's page record
// as induced faults, reading the whole recorded set in large coalesced disk
// transactions so the working set is available at the start of the quantum
// (Figure 4). onDone, if non-nil, fires when the prefetch transfers finish.
// It returns the number of pages scheduled for prefetch.
func (k *Kernel) AdaptivePageIn(inPID, outPID, wsPages int, onDone func()) int {
	if !k.features.AdaptiveIn {
		if onDone != nil {
			onDone()
		}
		return 0
	}
	rec := k.records[inPID]
	if rec == nil || rec.Len() == 0 {
		if onDone != nil {
			onDone()
		}
		return 0
	}
	n := rec.pages
	rec.pages = 0 // ReadPageSet below takes the pages out of the bitmap
	k.stats.PrefetchedPages += int64(n)
	k.stats.PrefetchRequests++
	if k.obs != nil {
		k.obs.Bus.Emit(obs.Event{
			T:     k.eng.Now(),
			Kind:  obs.KindPrefaultBatch,
			Node:  k.obs.Node,
			PID:   inPID,
			Pages: n,
		})
	}
	var span obs.SpanID
	if k.obs != nil {
		if tr := k.obs.Tracer; tr != nil {
			span = tr.Begin(k.eng.Now(), obs.SpanPrefault, tr.Epoch(), k.obs.Node, "", inPID)
			inner := onDone
			onDone = func() {
				tr.End(k.eng.Now(), span, n)
				if inner != nil {
					inner()
				}
			}
		}
	}
	k.vm.ReadPageSet(inPID, rec.words, disk.Demand, span, onDone)
	return n
}

// StartBGWrite activates the background writer for pid (§3.4): a
// low-priority daemon that periodically flushes batches of the running
// job's dirty pages so the next switch has less write-back to do. Starting
// it for another pid moves the daemon.
func (k *Kernel) StartBGWrite(pid int) {
	if !k.features.BGWrite {
		return
	}
	if k.vm.Process(pid) == nil {
		panic(fmt.Sprintf("core: StartBGWrite(%d): no such process", pid))
	}
	k.StopBGWrite()
	k.bgPID = pid
	k.bgTimer = k.eng.Schedule(k.cfg.BGWriteInterval, k.bgPassFn)
}

// StopBGWrite deactivates the daemon; the paper switches it off when the
// actual job switch begins. Its pending pass is cancelled, so it never
// fires.
func (k *Kernel) StopBGWrite() {
	if k.bgTimer != nil {
		k.bgTimer.Cancel()
		k.bgTimer = nil
	}
	k.bgPID = 0
}

// BGWriteActive reports whether the daemon is running and for which pid.
func (k *Kernel) BGWriteActive() (pid int, active bool) {
	return k.bgPID, k.bgPID != 0
}

// bgPass is one background-writer wake-up: it queues a batch of the
// process's dirty pages and re-arms its own event, bgTimer, for the next.
func (k *Kernel) bgPass() {
	pid := k.bgPID
	if k.vm.Process(pid) != nil {
		if n := k.vm.WriteBackDirty(pid, k.cfg.BGWriteBatch, disk.Background); n > 0 {
			k.stats.BGWritePasses++
			if k.obs != nil {
				k.obs.Bus.Emit(obs.Event{
					T:     k.eng.Now(),
					Kind:  obs.KindBGWriteTick,
					Node:  k.obs.Node,
					PID:   pid,
					Pages: n,
				})
			}
		}
	}
	k.eng.Rearm(k.bgTimer, k.cfg.BGWriteInterval)
}

// RecordLen reports the current page-record size for pid (testing and
// introspection).
func (k *Kernel) RecordLen(pid int) int {
	if rec := k.records[pid]; rec != nil {
		return rec.Len()
	}
	return 0
}
