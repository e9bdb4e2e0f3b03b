package trace

import (
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Series names of the paging-activity fold, recorded per node.
const (
	SeriesPageInKB  = "pagein_kb"
	SeriesPageOutKB = "pageout_kb"
)

// Paging folds the obs stream's DiskTransfer events into each node's
// paging-activity series (Figure 6's surface): a transfer's KB are spread
// over its service interval into the node's pagein_kb or pageout_kb
// series. It is an obs.Sink, so a run attaches it to its bus, and its
// Observe method fits the scan callbacks of store.Scan and
// obs.StreamJSONL, so replaying a captured stream folds the same events
// through the same code and renders the same series.
type Paging struct {
	bin       sim.Duration
	recs      map[int]*Recorder
	transfers map[int]int
}

// NewPaging returns a fold binning at bin width (which must be positive)
// whose recorders for nodes 0..nodes-1 exist from the start, so a node that
// never pages still has (empty) series. Other nodes get a recorder on
// their first transfer.
func NewPaging(nodes int, bin sim.Duration) *Paging {
	if bin <= 0 {
		panic("trace: bin width must be positive")
	}
	p := &Paging{bin: bin, recs: make(map[int]*Recorder), transfers: make(map[int]int)}
	for id := 0; id < nodes; id++ {
		p.Node(id)
	}
	return p
}

// Node returns node id's recorder, creating it on first use.
func (p *Paging) Node(id int) *Recorder {
	r, ok := p.recs[id]
	if !ok {
		r = NewRecorder(p.bin)
		// Pre-create series so CSV column order is stable.
		r.Series(SeriesPageInKB)
		r.Series(SeriesPageOutKB)
		p.recs[id] = r
	}
	return r
}

// Transfers reports how many DiskTransfer events were folded for node id.
func (p *Paging) Transfers(id int) int { return p.transfers[id] }

// Emit folds ev into the series; it makes Paging an obs.Sink.
func (p *Paging) Emit(ev obs.Event) { _ = p.Observe(ev) }

// Observe folds ev into the series and never fails.
func (p *Paging) Observe(ev obs.Event) error {
	if ev.Kind != obs.KindDiskTransfer {
		return nil
	}
	name := SeriesPageInKB
	if ev.Write {
		name = SeriesPageOutKB
	}
	p.Node(ev.Node).Series(name).AddSpread(ev.T, ev.Dur, mem.KBFromPages(ev.Pages))
	p.transfers[ev.Node]++
	return nil
}
