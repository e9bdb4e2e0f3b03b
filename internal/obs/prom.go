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
// Views are read here, so render on the goroutine that runs the model.
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
	for _, name := range names {
		series := byName[name]
		sort.Slice(series, func(i, j int) bool { return series[i].labels < series[j].labels })
		if help := r.help[name]; help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, r.types[name]); err != nil {
			return err
		}
		for _, m := range series {
			if err := writePromSeries(w, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromSeries(w io.Writer, m *metricEntry) error {
	switch m.typ {
	case TypeCounter, TypeGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", m.name, m.labels, promFloat(m.value()))
		return err
	case TypeHistogram:
		cum := m.hist.Cumulative()
		for i, b := range m.hist.bounds {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				m.name, withLabel(m.lbls, "le", promFloat(b)), cum[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			m.name, withLabel(m.lbls, "le", "+Inf"), m.hist.Count()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.name, m.labels, promFloat(m.hist.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, m.labels, m.hist.Count())
		return err
	default:
		return fmt.Errorf("obs: unknown metric type %q", m.typ)
	}
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
