package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/experiments"
)

// figuresCmd is the verb-less form: every table and figure of the
// evaluation, or one selected by -fig or -table, as paper-vs-measured rows.
type figuresCmd struct {
	runs, fig, table int
	csv              string
}

func (c *figuresCmd) register(fs *flag.FlagSet) {
	fs.IntVar(&c.runs, "runs", 200, "fault-injection runs per configuration (paper: 1000)")
	fs.IntVar(&c.fig, "fig", 0, "regenerate a single figure (2,3,4,6,7,9)")
	fs.IntVar(&c.table, "table", 0, "regenerate a single table (1,2,3)")
	fs.StringVar(&c.csv, "csv", "", "also export figure data as CSV into this directory")
}

func (c *figuresCmd) check() error { return checkSelection(c.fig, c.table, c.runs) }

// checkSelection rejects a -fig or -table value that names nothing this
// command prints (0 means the flag is unset), and a -runs value below one.
func checkSelection(fig, table, runs int) error {
	switch fig {
	case 0, 2, 3, 4, 6, 7, 9:
	default:
		return fmt.Errorf("unknown figure %d (want 2, 3, 4, 6, 7 or 9)", fig)
	}
	switch table {
	case 0, 1, 2, 3:
	default:
		return fmt.Errorf("unknown table %d (want 1, 2 or 3)", table)
	}
	return checkRuns(runs)
}

func (c *figuresCmd) run(s *experiments.Suite, w io.Writer) error {
	all := c.fig == 0 && c.table == 0
	for _, step := range []struct {
		selected bool
		print    func(*experiments.Suite, io.Writer) error
	}{
		{c.table == 1, c.table1},
		{c.table == 2, c.table2},
		{c.fig == 2, c.fig2},
		{c.fig == 3, c.fig3},
		{c.fig == 4, c.fig4},
		{c.table == 3, c.table3},
		{c.fig == 6, c.fig6},
		{c.fig == 7, c.fig7},
		{c.fig == 9, c.fig9},
	} {
		if all || step.selected {
			if err := step.print(s, w); err != nil {
				return err
			}
		}
	}
	return nil
}

func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n================ %s ================\n\n", title)
}

func (c *figuresCmd) table1(_ *experiments.Suite, w io.Writer) error {
	section(w, "Table I — simulated GPU configuration")
	var rows [][]string
	for _, r := range experiments.Table1Config(arch.Default()) {
		rows = append(rows, []string{r.Parameter, r.Value})
	}
	fmt.Fprint(w, experiments.RenderTable([]string{"parameter", "value"}, rows))
	return nil
}

func (c *figuresCmd) table2(s *experiments.Suite, w io.Writer) error {
	section(w, "Table II — output error metrics")
	t2, err := experiments.Table2ErrorMetrics(s)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, r := range t2 {
		rows = append(rows, []string{r.App, r.OutputFormat, r.Metric.String(), fmt.Sprintf("%g", r.Threshold)})
	}
	fmt.Fprint(w, experiments.RenderTable([]string{"application", "output", "metric", "SDC threshold"}, rows))
	return nil
}

func (c *figuresCmd) fig2(_ *experiments.Suite, w io.Writer) error {
	section(w, "Fig. 2 — L2 cache size trend")
	if c.csv != "" {
		if err := experiments.ExportFig2CSV(c.csv); err != nil {
			return err
		}
	}
	var rows [][]string
	for _, r := range experiments.Fig2L2Trend() {
		rows = append(rows, []string{r.Vendor, r.GPU, fmt.Sprintf("%d", r.Year), fmt.Sprintf("%d", r.L2KB)})
	}
	fmt.Fprint(w, experiments.RenderTable([]string{"vendor", "GPU", "year", "L2 (KB)"}, rows))
	return nil
}

func (c *figuresCmd) fig3(s *experiments.Suite, w io.Writer) error {
	section(w, "Fig. 3 — per-block access profiles")
	results, err := experiments.Fig3AccessProfiles(s, 40)
	if err != nil {
		return err
	}
	if c.csv != "" {
		if err := experiments.ExportFig3CSV(c.csv, results); err != nil {
			return err
		}
	}
	var rows [][]string
	for _, r := range results {
		shape := "hot knee (a)-(f)"
		if !r.HotPattern {
			shape = "no knee (g)-(h)"
		}
		rows = append(rows, []string{r.App, fmt.Sprintf("%.0f×", r.MaxMinRatio), shape})
	}
	fmt.Fprint(w, experiments.RenderTable([]string{"application", "max/min block reads", "profile shape"}, rows))
	return nil
}

func (c *figuresCmd) fig4(s *experiments.Suite, w io.Writer) error {
	section(w, "Fig. 4 — warp sharing of data memory blocks")
	results, err := experiments.Fig4WarpSharing(s, 40)
	if err != nil {
		return err
	}
	if c.csv != "" {
		if err := experiments.ExportFig4CSV(c.csv, results); err != nil {
			return err
		}
	}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			r.App,
			fmt.Sprintf("%.1f%%", r.Series[0]),
			fmt.Sprintf("%.1f%%", r.Series[len(r.Series)-1]),
		})
	}
	fmt.Fprint(w, experiments.RenderTable([]string{"application", "coldest-block share", "hottest-block share"}, rows))
	return nil
}

func (c *figuresCmd) table3(s *experiments.Suite, w io.Writer) error {
	section(w, "Table III — data-object inventory")
	rows, err := experiments.Table3DataObjects(s)
	if err != nil {
		return err
	}
	if c.csv != "" {
		if err := experiments.ExportTable3CSV(c.csv, rows); err != nil {
			return err
		}
	}
	fmt.Fprint(w, renderTable3(rows, "objects by accesses (* = hot)"))
	return nil
}

// renderTable3 renders the Table III inventory, marking hot objects with
// a star; objects titles the object-list column.
func renderTable3(rows []experiments.Table3Row, objects string) string {
	var cells [][]string
	for _, r := range rows {
		names := make([]string, len(r.Objects))
		for i, o := range r.Objects {
			names[i] = o.Name
			if o.Hot {
				names[i] = "*" + o.Name
			}
		}
		cells = append(cells, []string{
			r.App, strings.Join(names, ", "),
			fmt.Sprintf("%.3f%%", r.HotSizePercent),
			fmt.Sprintf("%.2f%%", r.HotAccessPercent),
		})
	}
	return experiments.RenderTable([]string{"application", objects, "hot size", "hot accesses"}, cells)
}

func (c *figuresCmd) fig6(s *experiments.Suite, w io.Writer) error {
	section(w, fmt.Sprintf("Fig. 6 — hot vs rest vulnerability (%d runs/config)", c.runs))
	cells, err := experiments.Fig6HotVsRest(s, experiments.Fig6Config{Runs: c.runs})
	if err != nil {
		return err
	}
	if c.csv != "" {
		if err := experiments.ExportFig6CSV(c.csv, cells); err != nil {
			return err
		}
	}
	var rows [][]string
	for _, cell := range cells {
		rows = append(rows, []string{
			cell.App, cell.Space, cell.Model.String(),
			fmt.Sprintf("%d/%d", cell.Result.SDCRuns, cell.Result.Runs),
		})
	}
	fmt.Fprint(w, experiments.RenderTable([]string{"application", "space", "faults", "SDC"}, rows))
	return nil
}

func (c *figuresCmd) fig7(s *experiments.Suite, w io.Writer) error {
	section(w, "Fig. 7 — performance overhead of the resilience schemes")
	points, err := experiments.Fig7Overhead(s, experiments.Fig7Config{})
	if err != nil {
		return err
	}
	if c.csv != "" {
		if err := experiments.ExportFig7CSV(c.csv, points); err != nil {
			return err
		}
	}
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			p.App, p.Scheme.String(), fmt.Sprintf("%d", p.Level),
			fmt.Sprintf("%.4f", p.NormTime), fmt.Sprintf("%.4f", p.NormMisses),
		})
	}
	fmt.Fprint(w, experiments.RenderTable(
		[]string{"application", "scheme", "objects", "norm time", "norm L1 misses"}, rows))
	hot, allLv, err := experiments.LevelMaps(s, s.EvaluatedNames())
	if err != nil {
		return err
	}
	sum := experiments.SummarizeFig7(points, hot, allLv)
	fmt.Fprintf(w, "\npaper vs measured averages:\n")
	fmt.Fprintf(w, "  detection  hot-only: paper +1.2%%   measured %+.2f%%\n", 100*sum.DetectionHotOverhead)
	fmt.Fprintf(w, "  correction hot-only: paper +3.4%%   measured %+.2f%%\n", 100*sum.CorrectionHotOverhead)
	fmt.Fprintf(w, "  detection  all:      paper +40.65%% measured %+.2f%%\n", 100*sum.DetectionAllOverhead)
	fmt.Fprintf(w, "  correction all:      paper +74.24%% measured %+.2f%%\n", 100*sum.CorrectionAllOverhead)
	return nil
}

func (c *figuresCmd) fig9(s *experiments.Suite, w io.Writer) error {
	section(w, fmt.Sprintf("Fig. 9 — SDC vs protection level (%d runs/config)", c.runs))
	cells, err := experiments.Fig9Resilience(s, experiments.Fig9Config{Runs: c.runs})
	if err != nil {
		return err
	}
	if c.csv != "" {
		if err := experiments.ExportFig9CSV(c.csv, cells); err != nil {
			return err
		}
	}
	var rows [][]string
	for _, cell := range cells {
		rows = append(rows, []string{
			cell.App, cell.Scheme.String(), fmt.Sprintf("%d", cell.Level), cell.Model.String(),
			fmt.Sprintf("%d/%d", cell.Result.SDCRuns, cell.Result.Runs),
			fmt.Sprintf("%d", cell.Result.DetectedRuns),
		})
	}
	fmt.Fprint(w, experiments.RenderTable(
		[]string{"application", "scheme", "objects", "faults", "SDC", "detected"}, rows))
	hot, _, err := experiments.LevelMaps(s, s.EvaluatedNames())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nSDC drop with hot-object protection: paper 98.97%%, measured %.2f%%\n",
		experiments.SDCDropPercent(cells, hot))
	return nil
}
