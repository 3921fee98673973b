package main

import (
	"flag"
	"fmt"
	"io"

	"github.com/datacentric-gpu/dcrm/internal/experiments"
)

// resilienceCmd is `repro resilience`: the evaluation of the two
// protection schemes, the Fig. 7 overhead sweep (-perf) and the Fig. 9
// SDC-reduction campaigns (-sdc); both run when neither flag is given.
type resilienceCmd struct {
	perf, sdc bool
	runs      int
	seed      int64
	apps, csv string
}

func (c *resilienceCmd) register(fs *flag.FlagSet) {
	fs.BoolVar(&c.perf, "perf", false, "run the Fig. 7 performance sweep")
	fs.BoolVar(&c.sdc, "sdc", false, "run the Fig. 9 resilience campaigns")
	fs.IntVar(&c.runs, "runs", 1000, "fault-injection runs per configuration (Fig. 9)")
	fs.StringVar(&c.apps, "apps", "", "comma-separated applications (default: the evaluated eight)")
	fs.Int64Var(&c.seed, "seed", 11, "campaign seed")
	fs.StringVar(&c.csv, "csv", "", "also export figure data as CSV into this directory (created if missing)")
}

func (c *resilienceCmd) check() error { return checkRuns(c.runs) }

func (c *resilienceCmd) run(s *experiments.Suite, w io.Writer) error {
	apps := splitApps(c.apps)
	if apps == nil {
		apps = s.EvaluatedNames()
	}
	hot, all, err := experiments.LevelMaps(s, apps)
	if err != nil {
		return err
	}
	both := !c.perf && !c.sdc
	if c.perf || both {
		if err := c.runPerf(s, w, apps, hot, all); err != nil {
			return err
		}
	}
	if c.sdc || both {
		return c.runSDC(s, w, apps, hot)
	}
	return nil
}

func (c *resilienceCmd) runPerf(s *experiments.Suite, w io.Writer, apps []string, hot, all map[string]int) error {
	fmt.Fprintln(w, "Fig. 7 — execution time and L1-missed accesses, normalized to baseline")
	points, err := experiments.Fig7Overhead(s, experiments.Fig7Config{Apps: apps})
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
			fmt.Sprintf("%d", p.Cycles),
			fmt.Sprintf("%.4f", p.NormTime),
			fmt.Sprintf("%.4f", p.NormMisses),
		})
	}
	fmt.Fprint(w, experiments.RenderTable(
		[]string{"application", "scheme", "objects", "cycles", "norm time", "norm L1 misses"}, rows))
	sum := experiments.SummarizeFig7(points, hot, all)
	fmt.Fprintf(w, "\nAverages (paper: detection 1.2%%/40.65%%, correction 3.4%%/74.24%%):\n")
	fmt.Fprintf(w, "  detection  hot-only %+.2f%%   all objects %+.2f%%\n",
		100*sum.DetectionHotOverhead, 100*sum.DetectionAllOverhead)
	fmt.Fprintf(w, "  correction hot-only %+.2f%%   all objects %+.2f%%\n\n",
		100*sum.CorrectionHotOverhead, 100*sum.CorrectionAllOverhead)
	return nil
}

func (c *resilienceCmd) runSDC(s *experiments.Suite, w io.Writer, apps []string, hot map[string]int) error {
	fmt.Fprintf(w, "Fig. 9 — SDC outcomes out of %d runs, whole-space L1-miss-weighted injection\n\n", c.runs)
	cells, err := experiments.Fig9Resilience(s, experiments.Fig9Config{
		Runs: c.runs, Seed: c.seed, Apps: apps,
	})
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
			fmt.Sprintf("%d", cell.Result.SDCRuns),
			fmt.Sprintf("%d", cell.Result.DetectedRuns),
			fmt.Sprintf("%d", cell.Result.MaskedRuns),
			fmt.Sprintf("%d", cell.Result.CrashedRuns),
		})
	}
	fmt.Fprint(w, experiments.RenderTable(
		[]string{"application", "scheme", "objects", "faults", "SDC", "detected", "masked", "crashed"}, rows))
	fmt.Fprintf(w, "\nAverage SDC drop with hot-object protection: %.2f%% (paper: 98.97%%)\n",
		experiments.SDCDropPercent(cells, hot))
	return nil
}
