package proc

import (
	"fmt"
	"sort"

	"repro/internal/acct"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Segment is one touch range executed each iteration.
type Segment struct {
	Offset int  // first page of the range within the footprint
	Pages  int  // length of the range
	Write  bool // stores (dirty pages) vs loads
	Passes int  // sweeps over the range per iteration (>= 1)
}

// Behavior describes a process's memory reference pattern.
type Behavior struct {
	FootprintPages int
	Iterations     int
	Segments       []Segment
	// TouchCost is the CPU time per page visited when resident.
	TouchCost sim.Duration
	// ComputePerIter is extra pure-CPU time per iteration (work that does
	// not sweep memory).
	ComputePerIter sim.Duration
	// InitWrite makes every touch of the first iteration a write,
	// modelling array initialisation: even read-only regions (e.g. CG's
	// sparse matrix) are written once, so they have real backing-store
	// copies and reloading them costs disk reads rather than zero fills.
	InitWrite bool
	// Jitter varies each iteration's compute cost by a uniform factor in
	// [1-Jitter, 1+Jitter], drawn from the engine's seeded RNG. Real ranks
	// never run in lock step; jitter is what makes barrier waiting — and
	// the benefit of synchronising paging across nodes — visible.
	Jitter float64
	// SyncEveryIter makes the rank enter its job barrier after each
	// iteration (parallel jobs).
	SyncEveryIter bool
	// MsgBytes is the barrier payload per rank.
	MsgBytes int
}

// Validate reports configuration errors.
func (b Behavior) Validate() error {
	if b.FootprintPages <= 0 {
		return fmt.Errorf("proc: footprint must be positive, got %d", b.FootprintPages)
	}
	if b.Iterations <= 0 {
		return fmt.Errorf("proc: iterations must be positive, got %d", b.Iterations)
	}
	if len(b.Segments) == 0 {
		return fmt.Errorf("proc: behavior needs at least one segment")
	}
	if b.TouchCost <= 0 {
		return fmt.Errorf("proc: touch cost must be positive, got %v", b.TouchCost)
	}
	if b.ComputePerIter < 0 {
		return fmt.Errorf("proc: negative ComputePerIter %v", b.ComputePerIter)
	}
	if b.MsgBytes < 0 {
		return fmt.Errorf("proc: negative MsgBytes %d", b.MsgBytes)
	}
	if b.Jitter < 0 || b.Jitter >= 1 {
		return fmt.Errorf("proc: jitter %v outside [0, 1)", b.Jitter)
	}
	for i, s := range b.Segments {
		if s.Pages <= 0 || s.Offset < 0 || s.Offset+s.Pages > b.FootprintPages {
			return fmt.Errorf("proc: segment %d out of range: %+v (footprint %d)", i, s, b.FootprintPages)
		}
		if s.Passes < 1 {
			return fmt.Errorf("proc: segment %d needs >= 1 pass, got %d", i, s.Passes)
		}
	}
	return nil
}

// WorkingSetPages reports the number of distinct pages touched per
// iteration (the union of the segment ranges).
func (b Behavior) WorkingSetPages() int {
	type iv struct{ lo, hi int }
	ivs := make([]iv, len(b.Segments))
	for i, s := range b.Segments {
		ivs[i] = iv{s.Offset, s.Offset + s.Pages}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, curLo, curHi := 0, -1, -1
	for _, v := range ivs {
		if curHi < 0 || v.lo > curHi {
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
			continue
		}
		if v.hi > curHi {
			curHi = v.hi
		}
	}
	total += curHi - curLo
	if curHi < 0 {
		return 0
	}
	return total
}

// TouchesPerIteration reports the number of page visits one iteration
// makes (segments × passes), resident or not.
func (b Behavior) TouchesPerIteration() int64 {
	var n int64
	for _, s := range b.Segments {
		n += int64(s.Pages) * int64(s.Passes)
	}
	return n
}

// phase is the program counter's coarse position.
type phase int

const (
	phaseTouch phase = iota
	phaseIterCompute
	phaseBarrier
	phaseIterEnd
	phaseDone
)

// Stats summarises one process's execution.
type Stats struct {
	ComputeTime    sim.Duration
	BarrierWaits   int64
	IterationsDone int
	// SkippedIterations counts the iterations, among IterationsDone, that
	// a touch window charged without touching because the next iteration's
	// touches overwrite theirs (DESIGN §10b). The one-event-per-chunk
	// schedule skips none; nothing else differs.
	SkippedIterations int
	StartedAt         sim.Time
	FinishedAt        sim.Time
}

// Process executes a Behavior against a VM under external start/stop
// control.
type Process struct {
	eng     *sim.Engine
	v       *vm.VM
	as      *vm.AddressSpace // pid's image in v, held so touches skip the pid lookup
	pid     int
	beh     Behavior
	barrier *mpi.Barrier // nil for serial processes

	// ChunkPages caps the pages charged in a single compute event so stop
	// requests take effect promptly; set before the first Start.
	ChunkPages int

	// SlowFactor scales this rank's compute costs (touch and per-iteration
	// work); > 1 models a straggler node. 1 (the default) is exactly the
	// unscaled cost path. Set before the first Start.
	SlowFactor float64

	running bool
	started bool
	blocked bool // waiting on fault/compute/barrier completion event
	done    bool

	ph     phase
	iter   int
	segIdx int
	pass   int
	cursor int

	// iterScale is this iteration's jittered compute-cost factor.
	iterScale float64

	stats    Stats
	onFinish func(*Process)

	// led, when non-nil, classifies this rank's wall time: each blocking
	// site transitions it to the category about to be waited on, and resume
	// while stopped transitions it back to idle. A nil ledger costs one
	// branch per block.
	led *obs.RankLedger

	// run, when non-nil, is the node's differential accounting gauge: the
	// running-state transitions post to it so the auditor can verify the
	// gang laws without enumerating processes.
	run *acct.Counts

	// resumeFn is p.resume bound once at construction; passing a method
	// value allocates a closure per call, and resume is scheduled once per
	// compute chunk and fault on the simulator's hottest path. soloFn is
	// resumeSolo, bound the same way.
	resumeFn, soloFn func()

	// solo is set while advance runs as all that is left of an engine
	// event: a compute resume, which the process schedules as an event of
	// its own. Only then may a touch window fold demand-zero fills (see
	// stepTouch). Block clears it, so a resume nested in the same event
	// (a barrier release, say) does not inherit it.
	solo bool

	// ffCollapsed is how many would-be events (compute resumes and folded
	// zero-fill finishes) the pending fast-forwarded touch run absorbed (see
	// stepTouch); credited to the engine's logical event count when that
	// resume fires.
	ffCollapsed int

	// iterCost and iterChunks are one resident iteration's compute time and
	// chunk count, which a window that skips the iteration charges
	// (iterWork); zero until first needed.
	iterCost   sim.Duration
	iterChunks int
}

// New creates a process engine for pid, whose address space must already
// exist in v with at least beh.FootprintPages pages. barrier may be nil;
// onFinish (may be nil) fires when the final iteration completes.
func New(eng *sim.Engine, v *vm.VM, pid int, beh Behavior, barrier *mpi.Barrier, onFinish func(*Process)) *Process {
	if err := beh.Validate(); err != nil {
		panic(err)
	}
	as := v.Process(pid)
	if as == nil {
		panic(fmt.Sprintf("proc: pid %d has no address space", pid))
	}
	if as.NumPages() < beh.FootprintPages {
		panic(fmt.Sprintf("proc: pid %d address space %d pages < footprint %d",
			pid, as.NumPages(), beh.FootprintPages))
	}
	if beh.SyncEveryIter && barrier == nil {
		panic(fmt.Sprintf("proc: pid %d requires a barrier (SyncEveryIter)", pid))
	}
	p := &Process{
		eng:        eng,
		v:          v,
		as:         as,
		pid:        pid,
		beh:        beh,
		barrier:    barrier,
		ChunkPages: 8192,
		SlowFactor: 1,
		cursor:     beh.Segments[0].Offset,
		onFinish:   onFinish,
		iterScale:  1,
	}
	p.resumeFn, p.soloFn = p.resume, p.resumeSolo
	p.rollJitter()
	return p
}

// rollJitter draws the next iteration's compute-cost factor.
func (p *Process) rollJitter() {
	if p.beh.Jitter <= 0 {
		p.iterScale = 1
		return
	}
	u := p.eng.Rand().Float64() // deterministic per engine seed
	p.iterScale = 1 + p.beh.Jitter*(2*u-1)
}

// SetLedger attaches (or with nil detaches) the rank's attribution ledger.
func (p *Process) SetLedger(l *obs.RankLedger) { p.led = l }

// SetRunGauge attaches the owning node's differential accounting gauge;
// must be set before the first Start.
func (p *Process) SetRunGauge(c *acct.Counts) { p.run = c }

// Ledger returns the attached attribution ledger (nil when disabled).
func (p *Process) Ledger() *obs.RankLedger { return p.led }

// PID reports the process id.
func (p *Process) PID() int { return p.pid }

// Behavior returns the reference pattern.
func (p *Process) Behavior() Behavior { return p.beh }

// Running reports whether the scheduler has the process started.
func (p *Process) Running() bool { return p.running }

// Done reports whether all iterations have completed.
func (p *Process) Done() bool { return p.done }

// Iteration reports the current (0-based) iteration index.
func (p *Process) Iteration() int { return p.iter }

// Stats returns a copy of the execution counters.
func (p *Process) Stats() Stats { return p.stats }

// Start resumes execution (SIGCONT). Starting a running or finished
// process is a no-op.
func (p *Process) Start() {
	if p.running || p.done {
		return
	}
	p.running = true
	if p.run != nil {
		p.run.RankStarted(p.pid)
	}
	if !p.started {
		p.started = true
		p.stats.StartedAt = p.eng.Now()
	}
	if !p.blocked {
		p.advance()
	}
}

// Stop pauses execution (SIGSTOP). An in-flight fault, compute chunk or
// barrier completes, after which the process waits for Start. Stopping an
// already-stopped process is a no-op.
func (p *Process) Stop() {
	if !p.running {
		return
	}
	p.running = false
	if p.run != nil {
		p.run.RankStopped()
	}
}

// resume is the completion callback for every blocking event.
func (p *Process) resume() {
	if n := p.ffCollapsed; n != 0 {
		p.ffCollapsed = 0
		p.eng.CountCollapsed(n)
	}
	p.blocked = false
	if p.running && !p.done {
		p.advance()
	} else if !p.done {
		// Stopped (or crash-released) while the event was in flight: the rank
		// now sits idle until the next Start.
		p.led.TransitionIdle(p.eng.Now())
	}
}

// resumeSolo is resume fired as an event of its own: nothing else in the
// event runs after it.
func (p *Process) resumeSolo() {
	p.solo = true
	p.resume()
	p.solo = false
}

// block registers that a completion event will call resume.
func (p *Process) block() {
	p.blocked = true
	p.solo = false
}

// advance executes program steps until the process blocks or finishes.
func (p *Process) advance() {
	for {
		if !p.running || p.done {
			return
		}
		switch p.ph {
		case phaseTouch:
			if p.stepTouch() {
				return // blocked
			}
		case phaseIterCompute:
			p.ph = phaseBarrier
			if p.beh.ComputePerIter > 0 {
				cost := p.beh.ComputePerIter.Scale(p.iterScale)
				if p.SlowFactor != 1 {
					cost = cost.Scale(p.SlowFactor)
				}
				p.stats.ComputeTime += cost
				p.block()
				p.led.Transition(p.eng.Now(), obs.CatCompute)
				p.eng.ScheduleDetached(cost, p.soloFn)
				return
			}
		case phaseBarrier:
			p.ph = phaseIterEnd
			if p.beh.SyncEveryIter {
				p.stats.BarrierWaits++
				p.block()
				p.led.Transition(p.eng.Now(), obs.CatBarrier)
				p.barrier.Arrive(p.beh.MsgBytes, p.resumeFn)
				return
			}
		case phaseIterEnd:
			p.ph = phaseTouch
			p.endIteration()
			if p.done {
				return
			}
		case phaseDone:
			return
		}
	}
}

// stepTouch advances within the current segment; reports true if blocked.
func (p *Process) stepTouch() bool {
	seg := p.beh.Segments[p.segIdx]
	end := seg.Offset + seg.Pages
	if p.cursor >= end {
		// Next pass / segment / iteration boundary.
		p.pass++
		if p.pass < seg.Passes {
			p.cursor = seg.Offset
			return false
		}
		p.pass = 0
		p.segIdx++
		if p.segIdx < len(p.beh.Segments) {
			p.cursor = p.beh.Segments[p.segIdx].Offset
			return false
		}
		p.segIdx = 0
		p.cursor = p.beh.Segments[0].Offset
		p.ph = phaseIterCompute
		return false
	}
	// Touch-run fast-forwarding: charge as many chunks as provably behave
	// exactly like the one-event-per-chunk schedule, then block on a single
	// merged resume. A chunk beyond the first may be folded in only when the
	// resume that would have fired it falls before the engine's Horizon: no
	// queued event has an earlier timestamp (or the same timestamp, where the
	// earlier-scheduled event's smaller seq makes it fire first), and the
	// caller driving the engine does not stop before it (StepUntil's bound). Then no policy
	// decision, reclaim, stop, crash, audit-bearing step or caller between
	// engine calls can act inside the window: residency cannot change, no
	// RNG is drawn, and the merged resume at the window's end is
	// indistinguishable from the last chunk's. Touches are stamped with the
	// per-chunk times (and costs are rounded per chunk) so frame ages and
	// ComputeTime match the un-collapsed schedule bit for bit.
	//
	// A non-resident page ends the window (the merged resume, or at the
	// window's start this call, faults it through the normal path) unless
	// the VM can fill it in place: a demand-zero page whose fault would run
	// alone (FoldZeroFill). The VM fills a stretch of such pages at once,
	// each touched as the one-page chunk the un-collapsed schedule runs
	// between two fills, all but the last, which the next chunk touches.
	// The stalls join the window and are deferred to their ledger
	// categories. Fills reserve and record fault spans, so they fold only
	// in a solo window, one that is all that is left of its event: no
	// other work of the event can then come between them and the
	// un-collapsed schedule's trap and finish events.
	//
	// The window ends at the end of the touch phase unless it may cross the
	// iteration boundary (crossing): then it ends the iteration itself and
	// runs on. Once it has touched one whole iteration, so the image is
	// resident, it skips each iteration whose successor also ends before
	// the horizon: the successor sets the same bits, overwrites every stamp
	// and counts what the skipped one would have. The folded event count —
	// every chunk resume (skipped ones included) and fill finish but the
	// last event — is credited via Engine.CountCollapsed when the merged
	// resume fires (DESIGN §10b).
	now := p.eng.Now()
	horizon, bounded := p.eng.Horizon()
	write := seg.Write || (p.beh.InitWrite && p.iter == 0)
	p.led.Transition(now, obs.CatCompute)
	var total sim.Duration
	chunks, fills := 0, 0
	// whole is set while the window has touched the current iteration from
	// its start; resident once it has touched one whole iteration.
	whole := p.segIdx == 0 && p.pass == 0 && p.cursor == seg.Offset
	resident := false
	for {
		max := end - p.cursor
		if max > p.ChunkPages {
			max = p.ChunkPages
		}
		run := p.v.TouchRun(p.as, p.cursor, max, write, now.Add(total))
		if run == 0 {
			if p.solo {
				c := p.chunkCost(1)
				if n, switched, d := p.v.FoldZeroFill(p.as, p.cursor, end-p.cursor, write, now.Add(total), c, horizon, bounded); n > 0 {
					p.led.Defer(obs.CatFault, sim.Duration(n-switched)*d)
					p.led.Defer(obs.CatSwitch, sim.Duration(switched)*d)
					fills += n
					chunks += n - 1
					p.cursor += n - 1
					p.stats.ComputeTime += sim.Duration(n-1) * c
					total += sim.Duration(n)*d + sim.Duration(n-1)*c
					continue // the next chunk touches the last page at its fill's end
				}
			}
			if chunks == 0 {
				p.block()
				// CatFault here; the VM refines it to CatSwitch when the
				// missing page was evicted by switch-time paging.
				p.led.Transition(now, obs.CatFault)
				p.v.Fault(p.as, p.cursor, write, p.resumeFn)
				return true
			}
			break // merged resume faults this page through the normal path
		}
		p.cursor += run
		chunks++
		cost := p.chunkCost(run)
		p.stats.ComputeTime += cost
		total += cost
		if bounded && horizon <= now.Add(total) {
			break // an external event or the caller's stop comes first
		}
		// The resume at now+total would fire next: fast-forward through the
		// free boundary steps it would take, stopping at the phase end (the
		// merged resume performs the phase switch, as the last chunk's
		// resume does today) unless the window may cross it.
		stay := true
		for p.cursor >= end {
			p.pass++
			if p.pass < seg.Passes {
				p.cursor = seg.Offset
				continue
			}
			p.pass = 0
			p.segIdx++
			if p.segIdx < len(p.beh.Segments) {
				seg = p.beh.Segments[p.segIdx]
				end = seg.Offset + seg.Pages
				p.cursor = seg.Offset
				write = seg.Write || (p.beh.InitWrite && p.iter == 0)
				continue
			}
			p.segIdx = 0
			p.cursor = p.beh.Segments[0].Offset
			if !p.crossing() {
				p.ph = phaseIterCompute
				stay = false
				break
			}
			p.endIteration()
			resident = resident || whole
			whole = true
			if resident {
				cost, n := p.iterWork()
				for p.iter+1 < p.beh.Iterations && (!bounded || now.Add(total+2*cost) < horizon) {
					p.stats.ComputeTime += cost
					p.stats.SkippedIterations++
					total += cost
					chunks += n
					p.endIteration()
				}
			}
			seg = p.beh.Segments[0]
			end = seg.Offset + seg.Pages
			write = seg.Write || (p.beh.InitWrite && p.iter == 0)
		}
		if !stay {
			break
		}
	}
	p.ffCollapsed = chunks - 1 + fills
	p.block()
	p.eng.ScheduleDetached(total, p.soloFn)
	return true
}

// crossing reports whether a touch window may run on through the end of
// the current iteration: the window is solo, the boundary schedules
// nothing (no per-iteration compute, no barrier) and draws nothing (no
// jitter), and another iteration follows.
func (p *Process) crossing() bool {
	return p.solo && p.beh.ComputePerIter == 0 && !p.beh.SyncEveryIter &&
		p.beh.Jitter <= 0 && p.iter+1 < p.beh.Iterations
}

// iterWork reports one whole resident iteration's compute time and chunk
// count, as a touch window charges them: every segment pass cut into
// ChunkPages chunks, each chunk's cost rounded alone. It is computed on
// first use, for a process whose iterations all cost the same.
func (p *Process) iterWork() (sim.Duration, int) {
	if p.iterChunks == 0 {
		for _, s := range p.beh.Segments {
			for left := s.Pages; left > 0; left -= p.ChunkPages {
				p.iterCost += sim.Duration(s.Passes) * p.chunkCost(min(left, p.ChunkPages))
				p.iterChunks += s.Passes
			}
		}
	}
	return p.iterCost, p.iterChunks
}

// chunkCost is the compute cost of one chunk that touches run pages,
// rounded once for the chunk.
func (p *Process) chunkCost(run int) sim.Duration {
	cost := (sim.Duration(run) * p.beh.TouchCost).Scale(p.iterScale)
	if p.SlowFactor != 1 {
		cost = cost.Scale(p.SlowFactor)
	}
	return cost
}

func (p *Process) endIteration() {
	p.iter++
	p.stats.IterationsDone = p.iter
	p.rollJitter()
	if p.iter >= p.beh.Iterations {
		p.done = true
		p.ph = phaseDone
		p.running = false
		if p.run != nil {
			p.run.RankStopped()
		}
		p.stats.FinishedAt = p.eng.Now()
		p.led.Finish(p.eng.Now())
		if p.onFinish != nil {
			p.onFinish(p)
		}
	}
}
