package trace

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
)

// Series is a binned time series. Values added at simulated time t are
// accumulated into bin t/BinWidth. Series grows on demand and is cheap
// enough to leave enabled in benchmarks.
type Series struct {
	Name     string
	BinWidth sim.Duration
	bins     []float64
	total    float64
	n        int64
}

// NewSeries returns an empty series with the given bin width; width must be
// positive.
func NewSeries(name string, binWidth sim.Duration) *Series {
	if binWidth <= 0 {
		panic("trace: bin width must be positive")
	}
	return &Series{Name: name, BinWidth: binWidth}
}

// Add accumulates v into the bin containing t.
func (s *Series) Add(t sim.Time, v float64) {
	idx := int(int64(t) / int64(s.BinWidth))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.bins) {
		s.grow(idx + 1)
	}
	s.bins[idx] += v
	s.total += v
	s.n++
}

// grow extends the bins to length n, growing capacity in chunks so that a
// run recording hours of simulated time does not reallocate per bin.
func (s *Series) grow(n int) {
	if n <= cap(s.bins) {
		// Re-slicing can expose stale values left behind by Reset.
		old := len(s.bins)
		s.bins = s.bins[:n]
		for i := old; i < n; i++ {
			s.bins[i] = 0
		}
		return
	}
	c := 2 * cap(s.bins)
	if c < 256 {
		c = 256
	}
	if c < n {
		c = n
	}
	bins := make([]float64, n, c)
	copy(bins, s.bins)
	s.bins = bins
}

// AddSpread distributes v uniformly over [t, t+d), so long transfers show
// up as sustained rather than instantaneous activity.
func (s *Series) AddSpread(t sim.Time, d sim.Duration, v float64) {
	if d <= 0 {
		s.Add(t, v)
		return
	}
	first := int64(t) / int64(s.BinWidth)
	last := (int64(t) + int64(d) - 1) / int64(s.BinWidth)
	nbins := last - first + 1
	per := v / float64(nbins)
	for b := first; b <= last; b++ {
		s.Add(sim.Time(b*int64(s.BinWidth)), per)
	}
}

// Bins returns a copy of the accumulated bins.
func (s *Series) Bins() []float64 { return append([]float64(nil), s.bins...) }

// Bin returns the value of bin i (0 beyond the recorded range).
func (s *Series) Bin(i int) float64 {
	if i < 0 || i >= len(s.bins) {
		return 0
	}
	return s.bins[i]
}

// Len reports the number of bins recorded so far.
func (s *Series) Len() int { return len(s.bins) }

// Total reports the sum of every value added.
func (s *Series) Total() float64 { return s.total }

// Count reports how many Add calls contributed.
func (s *Series) Count() int64 { return s.n }

// Max reports the largest bin value (0 for an empty series).
func (s *Series) Max() float64 {
	m := 0.0
	for _, v := range s.bins {
		if v > m {
			m = v
		}
	}
	return m
}

// Reset clears all recorded data, keeping name and bin width.
func (s *Series) Reset() {
	s.bins = s.bins[:0]
	s.total = 0
	s.n = 0
}

// Recorder is a named collection of series sharing one bin width, typically
// one per simulated node.
type Recorder struct {
	BinWidth sim.Duration
	series   map[string]*Series
	order    []string
}

// NewRecorder returns a recorder whose series all use binWidth.
func NewRecorder(binWidth sim.Duration) *Recorder {
	if binWidth <= 0 {
		panic("trace: bin width must be positive")
	}
	return &Recorder{BinWidth: binWidth, series: make(map[string]*Series)}
}

// Series returns the series with the given name, creating it on first use.
func (r *Recorder) Series(name string) *Series {
	if s, ok := r.series[name]; ok {
		return s
	}
	s := NewSeries(name, r.BinWidth)
	r.series[name] = s
	r.order = append(r.order, name)
	return s
}

// Names lists the series in creation order.
func (r *Recorder) Names() []string { return append([]string(nil), r.order...) }

// Has reports whether a series with the given name exists.
func (r *Recorder) Has(name string) bool { _, ok := r.series[name]; return ok }

// CSV renders the selected series (all, when names is empty) as CSV with a
// leading time column in seconds.
func (r *Recorder) CSV(names ...string) string {
	if len(names) == 0 {
		names = r.order
	}
	var b strings.Builder
	b.WriteString("time_s")
	maxLen := 0
	cols := make([]*Series, 0, len(names))
	for _, n := range names {
		s, ok := r.series[n]
		if !ok {
			continue
		}
		cols = append(cols, s)
		fmt.Fprintf(&b, ",%s", n)
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	b.WriteByte('\n')
	binSec := r.BinWidth.Seconds()
	for i := 0; i < maxLen; i++ {
		fmt.Fprintf(&b, "%.0f", float64(i)*binSec)
		for _, s := range cols {
			fmt.Fprintf(&b, ",%.2f", s.Bin(i))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ASCII renders one series as a coarse bar chart: one output row per
// `group` bins, bar length proportional to the group sum. Handy for eyeball
// comparison of paging compaction (Figure 6).
func (s *Series) ASCII(group int, width int) string {
	if group < 1 {
		group = 1
	}
	if width < 8 {
		width = 8
	}
	groups := (len(s.bins) + group - 1) / group
	sums := make([]float64, groups)
	maxv := 0.0
	for i, v := range s.bins {
		sums[i/group] += v
		if sums[i/group] > maxv {
			maxv = sums[i/group]
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (max %.1f per %d bins)\n", s.Name, maxv, group)
	for i, v := range sums {
		bar := 0
		if maxv > 0 {
			bar = int(math.Round(v / maxv * float64(width)))
		}
		fmt.Fprintf(&b, "%6.0fs |%s\n", float64(i*group)*s.BinWidth.Seconds(), strings.Repeat("#", bar))
	}
	return b.String()
}

// ActiveSpan reports the time range [first, last] of bins whose value
// exceeds threshold, in bin indices, and whether any bin qualified. It is
// used to measure how compact a burst of paging activity is.
func (s *Series) ActiveSpan(threshold float64) (first, last int, ok bool) {
	first = -1
	for i, v := range s.bins {
		if v > threshold {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return 0, 0, false
	}
	return first, last, true
}

// ActiveBins counts bins above threshold; a compact trace has few.
func (s *Series) ActiveBins(threshold float64) int {
	n := 0
	for _, v := range s.bins {
		if v > threshold {
			n++
		}
	}
	return n
}
