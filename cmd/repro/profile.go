package main

import (
	"flag"
	"fmt"
	"io"

	"github.com/datacentric-gpu/dcrm/internal/experiments"
)

// profileCmd is `repro profile`: the offline access-pattern analysis. It
// prints the Fig. 3 summary for all ten applications, or with -warps the
// Fig. 4 series, with -objects Table III, with -series one application's
// raw normalized read series, and with -list the application names.
type profileCmd struct {
	warps, objects, list bool
	series               string
	points               int
}

func (c *profileCmd) register(fs *flag.FlagSet) {
	fs.BoolVar(&c.warps, "warps", false, "print the Fig. 4 warp-sharing series")
	fs.BoolVar(&c.objects, "objects", false, "print the Table III data-object inventory")
	fs.StringVar(&c.series, "series", "", "print one application's normalized read series")
	fs.BoolVar(&c.list, "list", false, "list application names")
	fs.IntVar(&c.points, "points", 40, "series points (at least 2)")
}

// check rejects a -points value that cannot show a series' shape: one
// point has no coldest-to-hottest span, and none prints nothing.
func (c *profileCmd) check() error {
	if c.points < 2 {
		return fmt.Errorf("-points %d: want at least 2 series points", c.points)
	}
	return nil
}

func (c *profileCmd) run(s *experiments.Suite, w io.Writer) error {
	switch {
	case c.list:
		for _, n := range s.AllNames() {
			fmt.Fprintln(w, n)
		}
	case c.warps:
		results, err := experiments.Fig4WarpSharing(s, c.points)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Fig. 4 — % of active warps sharing each block (blocks sorted by reads, ascending)")
		for _, r := range results {
			fmt.Fprintf(w, "\n%s:\n", r.App)
			printSeries(w, r.Series, "%5.1f")
		}
	case c.objects:
		rows, err := experiments.Table3DataObjects(s)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Table III — input data objects (measured ranking; * = hot)")
		fmt.Fprint(w, renderTable3(rows, "objects (by accesses)"))
	case c.series != "":
		p, err := s.Profile(c.series)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Fig. 3 — %s normalized reads per block (sorted ascending)\n", c.series)
		printSeries(w, p.NormalizedReadSeries(c.points), "%6.4f")
	default:
		results, err := experiments.Fig3AccessProfiles(s, c.points)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Fig. 3 — access-profile summary (sparkline: per-block reads, sorted ascending)")
		var cells [][]string
		for _, r := range results {
			shape := "hot knee"
			if !r.HotPattern {
				shape = "flat/staircase"
			}
			cells = append(cells, []string{
				r.App,
				fmt.Sprintf("%.0f×", r.MaxMinRatio),
				shape,
				experiments.Sparkline(r.Series),
			})
		}
		fmt.Fprint(w, experiments.RenderTable([]string{"application", "max/min reads", "profile", "shape"}, cells))
	}
	return nil
}

// printSeries prints a series ten values to a line.
func printSeries(w io.Writer, s []float64, format string) {
	for i, v := range s {
		if i > 0 && i%10 == 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, format+" ", v)
	}
	fmt.Fprintln(w)
}
