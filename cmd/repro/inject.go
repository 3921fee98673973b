package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/fault"
)

// injectCmd is `repro inject`: the Fig. 6 campaigns comparing the
// vulnerability of hot memory blocks against the rest of memory with no
// protection enabled, or with -breakdown the fault-model × scheme outcome
// breakdown over all ten applications, detected-uncorrectable (DUE) runs
// included.
type injectCmd struct {
	runs        int
	seed        int64
	apps, model string
	csv         string
	breakdown   bool
	models      []fault.Model
}

func (c *injectCmd) register(fs *flag.FlagSet) {
	fs.IntVar(&c.runs, "runs", 1000, "fault-injection runs per configuration (paper: 1000)")
	fs.StringVar(&c.apps, "apps", "", "comma-separated applications (default: the evaluated eight; -breakdown: all ten)")
	fs.Int64Var(&c.seed, "seed", 7, "campaign seed")
	fs.StringVar(&c.model, "model", "", "semicolon-separated fault-model specs, e.g. \"stuck-at:bits=3;transient:flips=2\" (default: the experiment's own sweep; known models: "+strings.Join(fault.ModelNames(), ", ")+")")
	fs.BoolVar(&c.breakdown, "breakdown", false, "run the fault-model × scheme outcome breakdown instead of Fig. 6")
	fs.StringVar(&c.csv, "csv", "", "also export the result cells as CSV into this directory (created if missing)")
}

func (c *injectCmd) check() error {
	if err := checkRuns(c.runs); err != nil {
		return err
	}
	if c.model != "" {
		var err error
		c.models, err = fault.ParseModels(c.model)
		return err
	}
	return nil
}

func (c *injectCmd) run(s *experiments.Suite, w io.Writer) error {
	if c.breakdown {
		return c.runBreakdown(s, w)
	}
	fmt.Fprintf(w, "Fig. 6 — SDC outcomes out of %d runs: hot blocks vs rest of memory\n\n", c.runs)
	cells, err := experiments.Fig6HotVsRest(s, experiments.Fig6Config{
		Runs: c.runs, Seed: c.seed, Models: c.models, Apps: splitApps(c.apps),
	})
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
			fmt.Sprintf("%d", cell.Result.SDCRuns),
			fmt.Sprintf("%d", cell.Result.MaskedRuns),
			fmt.Sprintf("%d", cell.Result.CrashedRuns),
			fmt.Sprintf("±%.1f%%", 100*cell.Result.ConfidenceHalfWidth()),
		})
	}
	fmt.Fprint(w, experiments.RenderTable(
		[]string{"application", "space", "faults", "SDC", "masked", "crashed", "95% CI"}, rows))
	return nil
}

// runBreakdown renders the full outcome distribution, one row per
// (application, scheme, model) cell, in the canonical outcome order.
func (c *injectCmd) runBreakdown(s *experiments.Suite, w io.Writer) error {
	fmt.Fprintf(w, "Fault-model × scheme outcome breakdown — %d runs per cell\n\n", c.runs)
	cells, err := experiments.FaultModelBreakdown(s, experiments.BreakdownConfig{
		Runs: c.runs, Seed: c.seed, Models: c.models, Apps: splitApps(c.apps),
	})
	if err != nil {
		return err
	}
	if c.csv != "" {
		if err := experiments.ExportBreakdownCSV(c.csv, cells); err != nil {
			return err
		}
	}
	header := []string{"application", "scheme", "model"}
	for _, o := range fault.Outcomes() {
		header = append(header, o.String())
	}
	header = append(header, "95% CI")
	var rows [][]string
	for _, cell := range cells {
		scheme := cell.Scheme.String()
		if cell.Level == 0 {
			scheme = "baseline"
		}
		row := []string{cell.App, scheme, cell.Model.String()}
		for _, o := range fault.Outcomes() {
			row = append(row, fmt.Sprintf("%d", cell.Result.Count(o)))
		}
		row = append(row, fmt.Sprintf("±%.1f%%", 100*cell.Result.ConfidenceHalfWidth()))
		rows = append(rows, row)
	}
	fmt.Fprint(w, experiments.RenderTable(header, rows))
	return nil
}
