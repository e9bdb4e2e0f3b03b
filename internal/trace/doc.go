// Package trace records time series of paging activity during a simulation
// run and renders them as CSV or coarse ASCII charts.
//
// The central type is Series: a fixed-width binned accumulator. Components
// call Add(t, v) as activity happens; the recorder buckets values into bins
// of the configured width (one second by default, matching the paper's
// Figure 6 traces). A Recorder groups the named series of one node so that
// page-in and page-out bandwidth, fault counts, and compute time can be
// rendered side by side, reproducing the paging-activity trace graphs.
// Paging fills one Recorder per node from the obs event stream's
// DiskTransfer events, whether a run emits them or a replay reads them
// back from a log or a store.
package trace
