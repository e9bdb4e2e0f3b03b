package expt

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/plot"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RenderSVGs regenerates the paper's figures as SVG files in dir:
//
//	fig6-<policy>.svg       paging-activity traces (node 0)
//	fig7-completion.svg     serial completion times
//	fig7-overhead.svg       serial switching overheads
//	fig7-reduction.svg      serial paging reductions
//	fig8-<n>m-reduction.svg parallel reductions (2 and 4 machines)
//	fig9-<setup>.svg        LU policy ablation reductions
func RenderSVGs(cfg Config, dir string) error {
	cfg.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name, svg string) error {
		return os.WriteFile(filepath.Join(dir, name), []byte(svg), 0o644)
	}

	// Figure 6: one trace chart per policy.
	traces, err := Figure6(cfg, 50*sim.Minute)
	if err != nil {
		return err
	}
	for _, tr := range traces {
		rec := tr.Nodes[0]
		binSec := rec.BinWidth.Seconds()
		svg := plot.Line([]plot.Series{
			{Name: "page-in KB/s", Y: rec.Series(trace.SeriesPageInKB).Bins(), XStep: binSec},
			{Name: "page-out KB/s", Y: rec.Series(trace.SeriesPageOutKB).Bins(), XStep: binSec},
		}, plot.LineOptions{
			Title:  fmt.Sprintf("Figure 6 — paging activity, policy %s (node 0)", tr.Policy),
			XLabel: "time (s)",
			YLabel: "KB/s",
		})
		name := fmt.Sprintf("fig6-%s.svg", sanitize(tr.Policy))
		if err := write(name, svg); err != nil {
			return err
		}
	}

	// Figure 7: three bar charts.
	rows7, err := Figure7(cfg)
	if err != nil {
		return err
	}
	var completion, overhead, reduction []plot.Bar
	for _, r := range rows7 {
		completion = append(completion, plot.Bar{Label: string(r.App),
			Values: []float64{r.OrigSec, r.AdaptiveSec, r.BatchSec}})
		overhead = append(overhead, plot.Bar{Label: string(r.App),
			Values: []float64{r.OrigOverhead, r.AdaptiveOverhead}})
		reduction = append(reduction, plot.Bar{Label: string(r.App),
			Values: []float64{r.Reduction}})
	}
	if err := write("fig7-completion.svg", plot.Bars(completion, plot.BarOptions{
		Title: "Figure 7a — job completion time (serial, class B)", YLabel: "seconds",
		Series: []string{"orig", "so/ao/ai/bg", "batch"},
	})); err != nil {
		return err
	}
	if err := write("fig7-overhead.svg", plot.Bars(overhead, plot.BarOptions{
		Title: "Figure 7b — switching overhead", YLabel: "fraction", Percent: true,
		Series: []string{"orig", "so/ao/ai/bg"},
	})); err != nil {
		return err
	}
	if err := write("fig7-reduction.svg", plot.Bars(reduction, plot.BarOptions{
		Title: "Figure 7c — paging reduction", YLabel: "fraction", Percent: true,
		Series: []string{"so/ao/ai/bg vs orig"},
	})); err != nil {
		return err
	}

	// Figure 8: reduction charts per machine count.
	for _, ranks := range []int{2, 4} {
		rows, err := Figure8(cfg, ranks)
		if err != nil {
			return err
		}
		var bars []plot.Bar
		for _, r := range rows {
			bars = append(bars, plot.Bar{Label: string(r.App), Values: []float64{r.Reduction}})
		}
		name := fmt.Sprintf("fig8-%dm-reduction.svg", ranks)
		if err := write(name, plot.Bars(bars, plot.BarOptions{
			Title:  fmt.Sprintf("Figure 8 — paging reduction (%d machines)", ranks),
			YLabel: "fraction", Percent: true,
			Series: []string{"so/ao/ai/bg vs orig"},
		})); err != nil {
			return err
		}
	}

	// Figure 9: reduction per policy combination per setup.
	rows9, err := Figure9(cfg)
	if err != nil {
		return err
	}
	for label, prs := range rows9 {
		var bars []plot.Bar
		for _, r := range prs {
			if r.Policy == "batch" || r.Policy == "orig" {
				continue
			}
			bars = append(bars, plot.Bar{Label: r.Policy, Values: []float64{r.Reduction}})
		}
		name := fmt.Sprintf("fig9-%s.svg", sanitize(label))
		if err := write(name, plot.Bars(bars, plot.BarOptions{
			Title:  fmt.Sprintf("Figure 9 — LU paging reduction, %s", label),
			YLabel: "fraction", Percent: true,
		})); err != nil {
			return err
		}
	}
	return nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}
