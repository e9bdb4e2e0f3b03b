package mpi

import (
	"fmt"
	"math/bits"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Network models a shared switch connecting the cluster's nodes.
type Network struct {
	eng *sim.Engine
	// Latency is the one-way per-message cost (NIC + stack + switch).
	Latency sim.Duration
	// BytesPerSec is the link bandwidth.
	BytesPerSec int64

	msgs  int64
	bytes int64
}

// DefaultNetwork models the paper's 100 Mbps switched Ethernet:
// ~100 µs message latency, 12.5 MB/s.
func DefaultNetwork(eng *sim.Engine) *Network {
	return NewNetwork(eng, 100*sim.Microsecond, 12_500_000)
}

// NewNetwork builds a network with the given latency and bandwidth.
func NewNetwork(eng *sim.Engine, latency sim.Duration, bytesPerSec int64) *Network {
	latency.CheckNonNegative("network latency")
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("mpi: bandwidth must be positive, got %d", bytesPerSec))
	}
	return &Network{eng: eng, Latency: latency, BytesPerSec: bytesPerSec}
}

// TransferTime reports how long a message of the given size occupies the
// link (latency excluded).
func (n *Network) TransferTime(msgBytes int) sim.Duration {
	if msgBytes < 0 {
		panic(fmt.Sprintf("mpi: negative message size %d", msgBytes))
	}
	return sim.Duration(int64(msgBytes) * int64(sim.Second) / n.BytesPerSec)
}

// Messages and Bytes report cumulative traffic.
func (n *Network) Messages() int64 { return n.msgs }
func (n *Network) Bytes() int64    { return n.bytes }

func (n *Network) account(msgBytes int) {
	n.msgs++
	n.bytes += int64(msgBytes)
}

// Barrier synchronizes the ranks of one parallel job. Each rank calls
// Arrive with a release callback; when the last rank arrives, every
// callback fires after the collective's communication cost.
type Barrier struct {
	net     *Network
	nRanks  int
	arrived int
	release []func()

	completions int64
	waitTime    sim.Duration // total rank-time spent waiting at barriers
	arriveTimes []sim.Time

	// Observability (nil when disabled): each barrier opening emits one
	// BarrierStall event.
	obsBus *obs.Bus
	obsJob string

	// Tracing (nil when disabled): each generation is one BarrierGen span
	// from first arrival to release, emitted retrospectively when the last
	// rank arrives.
	tracer   *obs.Tracer
	genStart sim.Time
}

// NewBarrier creates a barrier over nRanks ranks (nRanks >= 1).
func NewBarrier(net *Network, nRanks int) *Barrier {
	if nRanks < 1 {
		panic(fmt.Sprintf("mpi: barrier needs at least 1 rank, got %d", nRanks))
	}
	return &Barrier{net: net, nRanks: nRanks}
}

// Observe attaches the run's event bus (nil for none): it receives a
// BarrierStall event per opening, attributed to job, which also names the
// barrier's spans.
func (b *Barrier) Observe(bus *obs.Bus, job string) {
	b.obsBus = bus
	b.obsJob = job
}

// Trace attaches (or with nil detaches) the run's span tracer.
func (b *Barrier) Trace(t *obs.Tracer) { b.tracer = t }

// NumRanks reports the barrier width.
func (b *Barrier) NumRanks() int { return b.nRanks }

// Waiting reports how many ranks are currently blocked in the barrier.
func (b *Barrier) Waiting() int { return b.arrived }

// Completions reports how many times the barrier has opened.
func (b *Barrier) Completions() int64 { return b.completions }

// WaitTime reports the cumulative rank-time spent blocked at this barrier —
// the synchronization delay unsynchronized paging inflates.
func (b *Barrier) WaitTime() sim.Duration { return b.waitTime }

// Arrive registers a rank at the barrier with a payload of msgBytes. When
// every rank has arrived, all release callbacks fire after the collective
// cost. A rank must not arrive twice in one generation.
func (b *Barrier) Arrive(msgBytes int, release func()) {
	if release == nil {
		panic("mpi: Arrive with nil release")
	}
	if b.arrived >= b.nRanks {
		panic("mpi: more arrivals than ranks in one barrier generation")
	}
	b.net.account(msgBytes)
	b.arrived++
	b.release = append(b.release, release)
	b.arriveTimes = append(b.arriveTimes, b.net.eng.Now())
	if b.tracer != nil && b.arrived == 1 {
		b.genStart = b.net.eng.Now()
	}
	if b.arrived < b.nRanks {
		return
	}
	// Everyone is here: charge the collective cost and open the barrier.
	cost := b.cost(msgBytes)
	now := b.net.eng.Now()
	var genWait sim.Duration
	for _, at := range b.arriveTimes {
		genWait += now.Sub(at) + cost
	}
	b.waitTime += genWait
	if b.obsBus != nil {
		b.obsBus.Emit(obs.Event{
			T:     now,
			Kind:  obs.KindBarrierStall,
			Node:  obs.ClusterScope,
			Job:   b.obsJob,
			Ranks: b.nRanks,
			Dur:   genWait,
		})
	}
	if b.tracer != nil {
		b.tracer.EmitSpan(obs.Span{
			Kind: obs.SpanBarrierGen, Node: obs.ClusterScope, Job: b.obsJob,
			Ranks: b.nRanks, Start: b.genStart, End: now.Add(cost),
		})
	}
	waiters := b.release
	b.release = nil
	b.arriveTimes = b.arriveTimes[:0]
	b.arrived = 0
	b.completions++
	b.net.eng.ScheduleDetached(cost, func() {
		for _, w := range waiters {
			w()
		}
	})
}

// cost is the dissemination cost of the collective: log2(n) rounds of
// message latency plus one payload transfer.
func (b *Barrier) cost(msgBytes int) sim.Duration {
	rounds := bits.Len(uint(b.nRanks - 1)) // ceil(log2(n)), 0 for n==1
	return sim.Duration(rounds)*b.net.Latency + b.net.TransferTime(msgBytes)
}

// Exchange models a neighbour exchange (e.g. NPB LU's wavefront or SP's
// face exchanges): each of the job's ranks sends msgBytes and the caller is
// charged the transfer; done fires when the exchange completes. It is a
// lighter-weight primitive than Barrier for per-sweep communication.
func (n *Network) Exchange(msgBytes int, done func()) {
	if done == nil {
		panic("mpi: Exchange with nil done")
	}
	n.account(msgBytes)
	n.eng.ScheduleDetached(n.Latency+n.TransferTime(msgBytes), done)
}
