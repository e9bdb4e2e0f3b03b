package metrics

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/gang"
	"repro/internal/obs"
	"repro/internal/sim"
)

// SwitchingOverhead reports the fraction of gang-scheduled time spent on
// job-switch paging, per §4.1: (T_gang − T_batch) / T_gang. Results are
// clamped to [0, 1); a gang time at or below batch reports 0.
func SwitchingOverhead(tGang, tBatch sim.Duration) float64 {
	if tGang <= 0 {
		panic(fmt.Sprintf("metrics: non-positive gang time %v", tGang))
	}
	if tBatch < 0 {
		panic(fmt.Sprintf("metrics: negative batch time %v", tBatch))
	}
	ov := float64(tGang-tBatch) / float64(tGang)
	if ov < 0 {
		return 0
	}
	return ov
}

// PagingReduction reports how much of the original policy's job-switching
// time a new policy eliminates: 1 − (T_new − T_batch)/(T_orig − T_batch).
// When the original run has no switching overhead at all the reduction is
// reported as 0 (nothing to reduce). Values below 0 (the new policy is
// worse) are reported as negative, which the paper's Figure 9a shows can
// genuinely happen for some combinations.
func PagingReduction(tOrig, tNew, tBatch sim.Duration) float64 {
	origOver := tOrig - tBatch
	newOver := tNew - tBatch
	if origOver <= 0 {
		return 0
	}
	if newOver < 0 {
		newOver = 0
	}
	return 1 - float64(newOver)/float64(origOver)
}

// JobResult is one job's outcome.
type JobResult struct {
	Name       string
	FinishedAt sim.Time
	// BarrierWait is the cumulative rank-time the job spent blocked in its
	// barrier (0 for serial jobs) — the synchronization delay that
	// unsynchronized paging inflates.
	BarrierWait sim.Duration
	// Done reports whether every rank completed; false only when the run
	// was cut short (context cancellation or time limit).
	Done bool
	// Iterations is the slowest rank's completed iteration count, out of
	// TotalIters — the job's progress when the run ended.
	Iterations int
	TotalIters int
	// Attribution, present only when the run enabled rank ledgers,
	// decomposes the critical rank's wall time (== FinishedAt for jobs
	// submitted at t=0) into {compute, barrier, fault, switch, queue, down}.
	Attribution *obs.Attribution `json:",omitempty"`
}

// NodeResult aggregates one node's paging activity.
type NodeResult struct {
	PagesIn       int64
	PagesOut      int64
	BGPagesOut    int64
	MajorFaults   int64
	MinorFaults   int64
	FaultStall    sim.Duration
	DiskBusy      sim.Duration
	DiskSeeks     int64
	WastedBGWrite int64
	// DiskErrors / DiskRetries count injected transfer errors and the
	// retries that absorbed them; RetryStall is the backoff time paid.
	DiskErrors  int64
	DiskRetries int64
	RetryStall  sim.Duration
}

// FaultTally aggregates injected-fault recovery activity over a run. All
// zeros when no fault plan was attached.
type FaultTally struct {
	Crashes     int64 // fail-stop node crashes
	Restarts    int64 // nodes that completed their cold restart
	Requeues    int64 // crash victims moved to the rotation tail
	DiskErrors  int64 // transient disk errors injected (all nodes)
	DiskRetries int64 // disk retry attempts (matches DiskErrors 1:1)
	DiskForced  int64 // transfers that exhausted the retry budget
	DroppedIO   int64 // queued/in-flight transfers lost to crashes
}

// RunResult is the outcome of one simulated experiment run.
type RunResult struct {
	Policy   string
	Mode     string
	Jobs     []JobResult
	Nodes    []NodeResult
	Makespan sim.Duration // finish time of the last job
	Switches int64
	// Interrupted marks a partial result: the run's context was cancelled
	// before every job finished. Per-job progress is in Jobs.
	Interrupted bool
	// Faults tallies injected faults and the recovery work they caused.
	Faults FaultTally
	// Timeline records which job owned the cluster when (one interval per
	// quantum or partial quantum).
	Timeline []gang.Interval
}

// Collect gathers a RunResult from a completed cluster run.
func Collect(c *cluster.Cluster, policy string) RunResult {
	r := RunResult{Policy: policy}
	if s := c.Scheduler(); s != nil {
		r.Mode = s.Mode().String()
		r.Switches = s.Stats().Switches
		r.Faults.Requeues = s.Stats().Requeues
		r.Timeline = s.Timeline()
	}
	fs := c.FaultStats()
	r.Faults.Crashes = fs.Crashes
	r.Faults.Restarts = fs.Restarts
	for _, j := range c.Jobs() {
		jr := JobResult{Name: j.Name, FinishedAt: j.FinishedAt(), Done: j.Done()}
		if j.Barrier != nil {
			jr.BarrierWait = j.Barrier.WaitTime()
		}
		for i, m := range j.Members {
			it := m.Proc.Iteration()
			if i == 0 || it < jr.Iterations {
				jr.Iterations = it
			}
			jr.TotalIters = m.Proc.Behavior().Iterations
		}
		jr.Attribution = CriticalAttribution(j, c.Eng.Now())
		r.Jobs = append(r.Jobs, jr)
		if d := sim.Duration(j.FinishedAt()); d > r.Makespan {
			r.Makespan = d
		}
	}
	for _, n := range c.Nodes {
		vs := n.VM.Stats()
		ds := n.Disk.Stats()
		r.Nodes = append(r.Nodes, NodeResult{
			PagesIn:       vs.PagesIn,
			PagesOut:      vs.PagesOut,
			BGPagesOut:    vs.BGPagesOut,
			MajorFaults:   vs.MajorFaults,
			MinorFaults:   vs.MinorFaults,
			FaultStall:    vs.FaultStall,
			DiskBusy:      ds.BusyTime,
			DiskSeeks:     ds.Seeks,
			WastedBGWrite: vs.WastedBGWrite,
			DiskErrors:    ds.Errors,
			DiskRetries:   ds.Retries,
			RetryStall:    ds.RetryStall,
		})
		r.Faults.DiskErrors += ds.Errors
		r.Faults.DiskRetries += ds.Retries
		r.Faults.DiskForced += ds.Forced
		r.Faults.DroppedIO += ds.Dropped
	}
	return r
}

// CriticalAttribution decomposes the job's critical-path wall time as of
// now (ignored once the job is done). Nil when rank ledgers are disabled.
// The live observer uses it for /progress; Collect for RunResult.
func CriticalAttribution(j *gang.Job, now sim.Time) *obs.Attribution {
	led := criticalLedger(j)
	if led == nil {
		return nil
	}
	a := led.Snapshot(now)
	return &a
}

// criticalLedger picks the job's critical rank's ledger: the last-finishing
// rank (ties broken toward the lowest node), or the lowest-node unfinished
// rank when the run was cut short. Nil when ledgers are disabled.
func criticalLedger(j *gang.Job) *obs.RankLedger {
	var crit *obs.RankLedger
	var critAt sim.Time
	critDone := true
	for _, m := range j.Members {
		led := m.Proc.Ledger()
		if led == nil {
			return nil
		}
		done, at := m.Proc.Done(), m.Proc.Stats().FinishedAt
		switch {
		case crit == nil:
			crit, critAt, critDone = led, at, done
		case !done && critDone:
			crit, critAt, critDone = led, at, false
		case done && critDone && at > critAt:
			crit, critAt = led, at
		}
	}
	return crit
}

// MeanCompletion reports the mean job completion time — the responsiveness
// measure gang scheduling is meant to improve for mixed workloads.
func (r RunResult) MeanCompletion() sim.Duration {
	if len(r.Jobs) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, j := range r.Jobs {
		sum += sim.Duration(j.FinishedAt)
	}
	return sum / sim.Duration(len(r.Jobs))
}

// CompletionOf reports when the named job finished (0, false if unknown).
func (r RunResult) CompletionOf(name string) (sim.Duration, bool) {
	for _, j := range r.Jobs {
		if j.Name == name {
			return sim.Duration(j.FinishedAt), true
		}
	}
	return 0, false
}

// TotalPagesMoved sums page traffic over all nodes (demand + background).
func (r RunResult) TotalPagesMoved() int64 {
	var n int64
	for _, nr := range r.Nodes {
		n += nr.PagesIn + nr.PagesOut + nr.BGPagesOut
	}
	return n
}

// TotalFaultStall sums process stall time across nodes.
func (r RunResult) TotalFaultStall() sim.Duration {
	var d sim.Duration
	for _, nr := range r.Nodes {
		d += nr.FaultStall
	}
	return d
}

// Pct formats a ratio as a percentage string ("83.4%").
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
