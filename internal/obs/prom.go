package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteProm renders every registered series in the Prometheus text
// exposition format (version 0.0.4): one # HELP / # TYPE header per metric
// name, then its series sorted by label set. Output is deterministic.
// Views are read here, so render on the goroutine that runs the model. Each
// metric name's lines are built in one buffer with strconv appends and
// written at once. A histogram's bucket labels are rendered once, at its
// first exposition, so runs that never render pay nothing for them.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Group series by metric name, names sorted.
	byName := make(map[string][]*metricEntry)
	names := make([]string, 0, len(r.types))
	for _, m := range r.entries {
		if _, ok := byName[m.name]; !ok {
			names = append(names, m.name)
		}
		byName[m.name] = append(byName[m.name], m)
	}
	sort.Strings(names)
	var b []byte
	for _, name := range names {
		series := byName[name]
		sort.Slice(series, func(i, j int) bool { return series[i].labels < series[j].labels })
		if help := r.help[name]; help != "" {
			b = append(append(append(append(b, "# HELP "...), name...), ' '), help...)
			b = append(b, '\n')
		}
		b = append(append(append(append(b, "# TYPE "...), name...), ' '), r.types[name]...)
		b = append(b, '\n')
		for _, m := range series {
			var err error
			if b, err = appendPromSeries(b, m); err != nil {
				return err
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		b = b[:0]
	}
	return nil
}

// appendPromSeries appends one series' lines to b.
func appendPromSeries(b []byte, m *metricEntry) ([]byte, error) {
	switch m.typ {
	case TypeCounter, TypeGauge:
		b = strconv.AppendFloat(sample(b, m.name, "", m.labels), m.value(), 'g', -1, 64)
		return append(b, '\n'), nil
	case TypeHistogram:
		h := m.hist
		if m.les == nil {
			m.les = make([]string, len(h.bounds)+1)
			for i, b := range h.bounds {
				m.les[i] = withLabel(m.lbls, "le", promFloat(b))
			}
			m.les[len(h.bounds)] = withLabel(m.lbls, "le", "+Inf")
		}
		var cum int64
		for i := range h.bounds {
			cum += h.counts[i]
			b = append(strconv.AppendInt(sample(b, m.name, "_bucket", m.les[i]), cum, 10), '\n')
		}
		b = append(strconv.AppendInt(sample(b, m.name, "_bucket", m.les[len(h.bounds)]), h.Count(), 10), '\n')
		b = append(strconv.AppendFloat(sample(b, m.name, "_sum", m.labels), h.Sum(), 'g', -1, 64), '\n')
		return append(strconv.AppendInt(sample(b, m.name, "_count", m.labels), h.Count(), 10), '\n'), nil
	default:
		return b, fmt.Errorf("obs: unknown metric type %q", m.typ)
	}
}

// sample appends the start of a sample line: the name with its suffix,
// the labels and the space before the value. Values are appended as
// promFloat renders them, or as integers.
func sample(b []byte, name, suffix, labels string) []byte {
	return append(append(append(append(b, name...), suffix...), labels...), ' ')
}

// withLabel renders the series labels plus one extra pair, keys sorted
// (Prometheus does not require it, but sorted output is deterministic and
// easier to diff).
func withLabel(lbls Labels, key, val string) string {
	all := make(Labels, len(lbls)+1)
	for k, v := range lbls {
		all[k] = v
	}
	all[key] = val
	return all.canon()
}

// promFloat renders a float the way Prometheus clients do: shortest
// round-trip representation, integers without an exponent.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
