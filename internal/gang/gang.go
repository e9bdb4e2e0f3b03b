package gang

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sim"
)

// Member is one rank of a job: its process engine and the adaptive-paging
// kernel of the node it runs on.
type Member struct {
	Proc   *proc.Process
	Kernel *core.Kernel
}

// Job is a gang-scheduled (possibly parallel) job.
type Job struct {
	Name    string
	Members []Member
	// Quantum is this job's time slice. The paper uses 5 minutes, 7 for SP
	// on four machines.
	Quantum sim.Duration
	// WSHintPages, when positive, is the working-set size the scheduler
	// passes to the kernel API; 0 lets the kernel estimate it.
	WSHintPages int
	// Barrier is the job's rank barrier (nil for serial jobs); exposed so
	// metrics can report synchronization delay.
	Barrier *mpi.Barrier

	doneMembers int
	finishedAt  sim.Time
	finished    bool
	started     bool
}

// Started reports whether the job has received its first quantum.
func (j *Job) Started() bool { return j.started }

// Done reports whether every rank has completed.
func (j *Job) Done() bool { return j.finished }

// FinishedAt reports when the last rank completed (valid once Done).
func (j *Job) FinishedAt() sim.Time { return j.finishedAt }

func (j *Job) validate() error {
	if j.Name == "" {
		return fmt.Errorf("gang: job without a name")
	}
	if len(j.Members) == 0 {
		return fmt.Errorf("gang: job %q has no members", j.Name)
	}
	if j.Quantum <= 0 {
		return fmt.Errorf("gang: job %q has non-positive quantum %v", j.Name, j.Quantum)
	}
	for i, m := range j.Members {
		if m.Proc == nil || m.Kernel == nil {
			return fmt.Errorf("gang: job %q member %d incomplete", j.Name, i)
		}
	}
	return nil
}

// Mode selects how the scheduler shares the cluster.
type Mode int

const (
	// Gang rotates jobs round-robin with coordinated switches.
	Gang Mode = iota
	// Batch runs jobs back to back — the paper's no-switching baseline.
	Batch
)

func (m Mode) String() string {
	if m == Batch {
		return "batch"
	}
	return "gang"
}

// Options tunes the scheduler.
type Options struct {
	Mode Mode
	// BGWriteFraction is the tail fraction of each quantum during which the
	// background writer runs (the paper found the last 10% best, §3.4).
	BGWriteFraction float64
	// DestroyOnFinish releases a job's memory and swap when it completes,
	// as process exit would. Defaults to true (set via NewScheduler).
	KeepFinishedMemory bool
	// MemoryAware enables Batat & Feitelson-style admission control (§5):
	// the scheduler refuses to time-share a pair of jobs whose combined
	// working sets over-commit a node's unlocked memory, letting the
	// running job finish instead. It avoids paging entirely at the cost of
	// batch-like response times; jobs need WSHintPages set.
	MemoryAware bool
	// Obs, when non-nil, is the run's observability: its bus receives a
	// JobSwitch event per coordinated switch and a JobRequeued event per
	// crash victim, and its tracer the switch-epoch spans.
	Obs *obs.Setup
}

// Stats summarises scheduler activity.
type Stats struct {
	Switches     int64
	QuantaServed int64
	Requeues     int64 // crash victims moved to the rotation tail
	FirstSwitch  sim.Time
	LastFinish   sim.Time
}

// Interval is one stretch of CPU ownership in the schedule timeline.
type Interval struct {
	Job   string
	Start sim.Time
	End   sim.Time
}

// Scheduler coordinates gang scheduling of a set of jobs.
type Scheduler struct {
	eng  *sim.Engine
	jobs []*Job
	opts Options

	cur       int // index of the running job, -1 before start or while parked
	timer     *sim.Event
	bgTimer   *sim.Event
	started   bool
	suspended bool // parked by Suspend (node down), waiting for Resume
	stats     Stats
	onAllDone func()

	timeline []Interval
	curStart sim.Time
}

// NewScheduler builds a scheduler over jobs. onAllDone (may be nil) fires
// when the last job completes.
func NewScheduler(eng *sim.Engine, jobs []*Job, opts Options, onAllDone func()) *Scheduler {
	if len(jobs) == 0 {
		panic("gang: no jobs")
	}
	if opts.BGWriteFraction < 0 || opts.BGWriteFraction >= 1 {
		panic(fmt.Sprintf("gang: BGWriteFraction %v outside [0,1)", opts.BGWriteFraction))
	}
	if opts.BGWriteFraction == 0 {
		opts.BGWriteFraction = 0.1
	}
	for _, j := range jobs {
		if err := j.validate(); err != nil {
			panic(err)
		}
	}
	return &Scheduler{eng: eng, jobs: jobs, opts: opts, cur: -1, onAllDone: onAllDone}
}

// MemberFinished must be called (by the cluster wiring of proc.Process
// onFinish callbacks) whenever a rank completes.
func (s *Scheduler) MemberFinished(j *Job) {
	j.doneMembers++
	if j.doneMembers < len(j.Members) {
		return
	}
	j.finished = true
	j.finishedAt = s.eng.Now()
	s.stats.LastFinish = j.finishedAt
	if s.cur >= 0 && s.jobs[s.cur] == j {
		s.closeInterval()
		s.curStart = s.eng.Now()
	}
	// Release the job's memory image unless the experiment wants to keep it.
	for _, m := range j.Members {
		pid := m.Proc.PID()
		m.Kernel.Forget(pid)
		if !s.opts.KeepFinishedMemory {
			if m.Kernel.VM().Process(pid) != nil {
				m.Kernel.VM().DestroyProcess(pid)
			}
		}
	}
	if s.allDone() {
		s.cancelTimers()
		if s.onAllDone != nil {
			s.onAllDone()
		}
		return
	}
	// The finished job held the cluster: hand it over immediately. While
	// parked after a node crash nothing runs, so no handover is due.
	if s.cur >= 0 && s.jobs[s.cur] == j {
		s.switchTo(s.nextRunnable(s.cur))
	}
}

// Suspend parks the scheduler in response to a node crash. The running
// job — the crash victim, whose rank on the dead node just lost its
// memory image — is stopped on every node and moved to the tail of the
// rotation, forfeiting the rest of its quantum. Because every job has
// one rank per node, no job can make progress while a node is down, so
// the whole rotation pauses until Resume. Returns the victim, or nil
// when no unfinished job was running (already parked, or all done).
func (s *Scheduler) Suspend() *Job {
	s.cancelTimers()
	if !s.started {
		return nil
	}
	s.suspended = true
	if s.cur < 0 || s.jobs[s.cur].finished {
		s.cur = -1
		return nil
	}
	victim := s.jobs[s.cur]
	s.closeInterval()
	for i := range victim.Members {
		m := &victim.Members[i]
		m.Kernel.StopBGWrite()
		m.Proc.Stop()
		m.Kernel.MarkStopped(m.Proc.PID())
	}
	// Move the victim to the rotation tail so survivors run first after
	// the restart.
	idx := s.cur
	s.jobs = append(append(s.jobs[:idx:idx], s.jobs[idx+1:]...), victim)
	s.cur = -1
	s.stats.Requeues++
	if o := s.opts.Obs; o != nil {
		o.Bus.Emit(obs.Event{
			T:     s.eng.Now(),
			Kind:  obs.KindJobRequeued,
			Node:  obs.ClusterScope,
			Job:   victim.Name,
			Ranks: len(victim.Members),
		})
	}
	return victim
}

// Resume restarts scheduling after the crashed node has rebooted. The
// rotation restarts from the head, so surviving jobs run before the
// requeued victim. No-op unless parked by Suspend.
func (s *Scheduler) Resume() {
	if !s.suspended {
		return
	}
	s.suspended = false
	if s.allDone() {
		return
	}
	s.switchTo(s.nextRunnable(-1))
}

// Jobs returns the job list (callers must not mutate).
func (s *Scheduler) Jobs() []*Job { return s.jobs }

// Running returns the job currently holding the cluster, or nil before
// Start, while parked after a crash, or once every job has finished.
// Exposed for the invariant auditor.
func (s *Scheduler) Running() *Job {
	if s.cur < 0 || s.jobs[s.cur].finished {
		return nil
	}
	return s.jobs[s.cur]
}

// Timeline reports who owned the CPUs when: one interval per served
// quantum (or partial quantum), in chronological order. The final running
// interval is closed at the current simulated time.
func (s *Scheduler) Timeline() []Interval {
	out := append([]Interval(nil), s.timeline...)
	if s.cur >= 0 && !s.jobs[s.cur].finished && s.eng.Now() > s.curStart {
		out = append(out, Interval{Job: s.jobs[s.cur].Name, Start: s.curStart, End: s.eng.Now()})
	}
	return out
}

// closeInterval ends the running job's timeline interval at now.
func (s *Scheduler) closeInterval() {
	if s.cur < 0 {
		return
	}
	now := s.eng.Now()
	if now > s.curStart {
		s.timeline = append(s.timeline, Interval{
			Job: s.jobs[s.cur].Name, Start: s.curStart, End: now,
		})
	}
}

// Stats returns a copy of the counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// Mode reports the scheduling mode.
func (s *Scheduler) Mode() Mode { return s.opts.Mode }

// Start begins scheduling. Call once; then drive the sim engine.
func (s *Scheduler) Start() {
	if s.started {
		panic("gang: Start called twice")
	}
	s.started = true
	s.switchTo(s.nextRunnable(-1))
}

func (s *Scheduler) allDone() bool {
	for _, j := range s.jobs {
		if !j.finished {
			return false
		}
	}
	return true
}

// nextRunnable returns the index of the next unfinished job after from, or
// -1 when none exists.
func (s *Scheduler) nextRunnable(from int) int {
	n := len(s.jobs)
	for i := 1; i <= n; i++ {
		idx := (from + i) % n
		if idx < 0 {
			idx += n
		}
		if !s.jobs[idx].finished {
			return idx
		}
	}
	return -1
}

func (s *Scheduler) cancelTimers() {
	if s.timer != nil {
		s.timer.Cancel()
		s.timer = nil
	}
	if s.bgTimer != nil {
		s.bgTimer.Cancel()
		s.bgTimer = nil
	}
}

// fitsWithNext reports whether the running job and the next runnable job's
// working sets together fit the most constrained node's unlocked memory.
func (s *Scheduler) fitsWithNext(in *Job) bool {
	nextIdx := s.nextRunnable(s.cur)
	if nextIdx < 0 || s.jobs[nextIdx] == in {
		return true
	}
	next := s.jobs[nextIdx]
	for i := range in.Members {
		phys := in.Members[i].Kernel.VM().Phys()
		capacity := phys.NumFrames() - phys.LockedFrames()
		if in.WSHintPages+next.WSHintPages > capacity {
			return false
		}
	}
	return true
}

// switchTo performs the coordinated context switch to jobs[next]. A
// negative next stops scheduling.
func (s *Scheduler) switchTo(next int) {
	s.cancelTimers()
	if next < 0 {
		return
	}
	var out *Job
	if s.cur >= 0 && s.cur != next && !s.jobs[s.cur].finished {
		out = s.jobs[s.cur]
		s.closeInterval()
	}
	s.curStart = s.eng.Now()
	in := s.jobs[next]
	if out != nil {
		s.stats.Switches++
		if s.stats.Switches == 1 {
			s.stats.FirstSwitch = s.eng.Now()
		}
	}
	s.stats.QuantaServed++
	if o := s.opts.Obs; o != nil && out != nil {
		o.Bus.Emit(obs.Event{
			T:      s.eng.Now(),
			Kind:   obs.KindJobSwitch,
			Node:   obs.ClusterScope,
			Job:    in.Name,
			OutJob: out.Name,
			Ranks:  len(in.Members),
		})
	}
	s.cur = next

	// Open the switch-epoch span: the causal root every drain, prefault and
	// post-switch fault of this quantum parents to. It closes when the last
	// member's page-in replay lands (the latch is armed once every replay
	// is issued), but its ID stays valid as a parent for the rest of the
	// quantum.
	var et *obs.Latch
	var release func()
	if o := s.opts.Obs; o != nil && o.Tracer != nil {
		tr := o.Tracer
		span := tr.Begin(s.eng.Now(), obs.SpanSwitchEpoch, 0, obs.ClusterScope, in.Name, 0)
		tr.SetEpoch(span)
		et = obs.NewLatch(tr, span)
		release = func() { et.Release(s.eng.Now()) }
	}

	// Stop the outgoing job on every node first (coordinated SIGSTOPs),
	// then apply adaptive paging and start the incoming job everywhere, so
	// paging begins simultaneously across the cluster.
	if out != nil {
		for i := range out.Members {
			m := &out.Members[i]
			m.Kernel.StopBGWrite()
			m.Proc.Stop()
			m.Kernel.MarkStopped(m.Proc.PID())
		}
	}
	for i := range in.Members {
		m := &in.Members[i]
		inPID := m.Proc.PID()
		m.Kernel.VM().BeginQuantum(inPID)
		m.Kernel.MarkRunning(inPID)
		outPID := 0
		if out != nil {
			outPID = out.Members[i].Proc.PID()
			m.Kernel.AdaptivePageOut(inPID, outPID, in.WSHintPages)
		} else if nvm := m.Kernel.VM(); nvm.Outgoing() == inPID && nvm.NumProcesses() > 1 {
			// No job is being de-scheduled (first start, handover from a
			// finished job, or crash-resume), so AdaptivePageOut does not
			// run and a selective designation from an earlier switch
			// survives. If it names the incoming job itself while another
			// address space is live — seen after a crash-resume, where the
			// victim's designation outlives it on the surviving nodes —
			// clear it: selective page-out must never steal from the
			// running job when a stopped process' pages are available.
			// With no other process live the stale designation is vacuous
			// (every reclaim path can only take the sole process' pages)
			// and is left as-is.
			nvm.SetOutgoing(0)
		}
		// The incoming job's page record is replayed even when no job is
		// being de-scheduled (e.g. the previous job just exited): the
		// record holds whatever was flushed while it was stopped.
		et.Hold(1)
		et.Add(m.Kernel.AdaptivePageIn(inPID, outPID, in.WSHintPages, release))
		m.Proc.Start()
		if in.finished {
			// Starting this rank finished the job's last running rank (the
			// others finished in earlier quanta). MemberFinished has
			// already released the job's processes and, unless every job
			// is done, switched the cluster onward from within this call.
			break
		}
	}
	in.started = true
	et.Arm(s.eng.Now())
	if in.finished {
		return // the nested switch owns the quantum timers
	}

	// In batch mode the job simply runs to completion. In gang mode,
	// schedule the quantum expiry and the background-writer start — but
	// only when another job is waiting for the CPU.
	if s.opts.Mode == Batch || s.nextRunnable(s.cur) == s.cur || s.nextRunnable(s.cur) < 0 {
		return
	}
	// Memory-aware admission control: if time-sharing with the next job
	// would over-commit memory, let the current job run to completion.
	if s.opts.MemoryAware && !s.fitsWithNext(in) {
		return
	}
	q := in.Quantum
	s.timer = s.eng.Schedule(q, func() {
		s.timer = nil
		s.switchTo(s.nextRunnable(s.cur))
	})
	bgDelay := q.Scale(1 - s.opts.BGWriteFraction)
	s.bgTimer = s.eng.Schedule(bgDelay, func() {
		s.bgTimer = nil
		for i := range in.Members {
			m := &in.Members[i]
			if !in.finished {
				m.Kernel.StartBGWrite(m.Proc.PID())
			}
		}
	})
}
