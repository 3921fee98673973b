package experiments

import (
	"errors"
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/kernels"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// Fig2Row is one GPU generation's L2 capacity — the public data behind the
// paper's motivation figure.
type Fig2Row struct {
	Vendor string
	GPU    string
	Year   int
	L2KB   int
}

// Fig2L2Trend returns the L2-size history of Fig. 2 (public spec sheets).
func Fig2L2Trend() []Fig2Row {
	return []Fig2Row{
		{"NVIDIA", "GTX 480 (Fermi)", 2010, 768},
		{"NVIDIA", "K40 (Kepler)", 2013, 1536},
		{"NVIDIA", "GTX 980 (Maxwell)", 2014, 2048},
		{"NVIDIA", "P100 (Pascal)", 2016, 4096},
		{"NVIDIA", "V100 (Volta)", 2017, 6144},
		{"NVIDIA", "RTX 2080 Ti (Turing)", 2018, 5632},
		{"NVIDIA", "A100 (Ampere)", 2020, 40960},
		{"AMD", "HD 7970 (Tahiti)", 2012, 768},
		{"AMD", "R9 290X (Hawaii)", 2013, 1024},
		{"AMD", "R9 Fury X (Fiji)", 2015, 2048},
		{"AMD", "RX Vega 64", 2017, 4096},
		{"AMD", "MI50 (Vega 20)", 2018, 4096},
		{"AMD", "MI100 (CDNA)", 2020, 8192},
	}
}

// Fig3Result is one application's access-profile series.
type Fig3Result struct {
	App string
	// Series is the normalized per-block read count, sorted ascending.
	Series []float64
	// MaxMinRatio is the hottest/coldest block access ratio.
	MaxMinRatio float64
	// HotPattern reports whether the profile shows the Fig. 3(a)–(f) knee.
	HotPattern bool
}

// fig3AccessProfiles is Fig3AccessProfiles' compute path (store miss).
func fig3AccessProfiles(s *Suite, points int) ([]Fig3Result, error) {
	if points <= 0 {
		points = 100
	}
	names := s.AllNames()
	out := make([]Fig3Result, len(names))
	err := s.runTasks("fig3: profiles", len(names), func(i int) error {
		p, err := s.Profile(names[i])
		if err != nil {
			return err
		}
		out[i] = Fig3Result{
			App:         names[i],
			Series:      p.NormalizedReadSeries(points),
			MaxMinRatio: p.MaxMinRatio(),
			HotPattern:  p.HasHotPattern(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig4Apps are the applications the paper plots in Fig. 4.
var Fig4Apps = []string{"P-BICG", "A-Laplacian", "C-NN", "A-SRAD"}

// Fig4Result is one application's warp-sharing series.
type Fig4Result struct {
	App string
	// Series is the percentage of active warps sharing each block, ordered
	// by read count ascending.
	Series []float64
}

// fig4WarpSharing is Fig4WarpSharing's compute path (store miss).
func fig4WarpSharing(s *Suite, points int) ([]Fig4Result, error) {
	if points <= 0 {
		points = 100
	}
	out := make([]Fig4Result, len(Fig4Apps))
	err := s.runTasks("fig4: warp sharing", len(Fig4Apps), func(i int) error {
		p, err := s.Profile(Fig4Apps[i])
		if err != nil {
			return err
		}
		out[i] = Fig4Result{App: Fig4Apps[i], Series: p.WarpSharePercentSeries(points)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Table3Object is one data-object row fragment.
type Table3Object struct {
	Name  string
	Hot   bool
	Reads uint64
}

// Table3Row reproduces one Table III row.
type Table3Row struct {
	App string
	// Objects in measured priority order (highest peak block count first).
	Objects []Table3Object
	// HotSizePercent is the hot objects' share of total app memory.
	HotSizePercent float64
	// HotAccessPercent is the hot objects' share of all read accesses.
	HotAccessPercent float64
}

// table3DataObjects is Table3DataObjects' compute path (store miss).
func table3DataObjects(s *Suite) ([]Table3Row, error) {
	names := s.EvaluatedNames()
	out := make([]Table3Row, len(names))
	err := s.runTasks("table3: data objects", len(names), func(i int) error {
		name := names[i]
		app, err := s.App(name)
		if err != nil {
			return err
		}
		p, err := s.Profile(name)
		if err != nil {
			return err
		}
		hot := make(map[string]bool, app.HotCount)
		for _, o := range app.HotObjects() {
			hot[o.Name] = true
		}
		row := Table3Row{
			App:              name,
			HotSizePercent:   p.HotSizePercent(app.HotObjects()),
			HotAccessPercent: p.HotAccessPercent(app.HotObjects()),
		}
		for _, o := range p.Objects {
			row.Objects = append(row.Objects, Table3Object{Name: o.Name, Hot: hot[o.Name], Reads: o.Reads})
		}
		out[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DefaultFaultModels are the paper's six injection configurations:
// {1, 5} faulty blocks × {2, 3, 4} stuck-at bits per word.
func DefaultFaultModels() []fault.Model {
	var out []fault.Model
	for _, blocks := range []int{1, 5} {
		for _, bits := range []int{2, 3, 4} {
			out = append(out, fault.StuckAt{BitsPerWord: bits, Blocks: blocks})
		}
	}
	return out
}

// ClassifyRun executes one fault-injected run and classifies its outcome:
// detection terminations are Detected, fault-induced failures Crashed, and
// outputs past the quality threshold SDC.
func ClassifyRun(app *kernels.App, clone *mem.Memory, plan *core.Plan, golden []float32) (fault.Outcome, error) {
	var reader *core.Plan
	if plan != nil {
		reader = plan.ForMemory(clone)
	}
	var err error
	if reader != nil {
		err = app.RunOn(clone, reader)
	} else {
		err = app.RunOn(clone, nil)
	}
	if err != nil {
		if errors.Is(err, core.ErrFaultDetected) {
			return fault.Detected, nil
		}
		// A fault that corrupts an index (e.g. A-SRAD's neighbour arrays)
		// can push an access out of bounds; that run crashed rather than
		// silently corrupting output.
		return fault.Crashed, nil
	}
	sdc, err := app.Metric.IsSDC(app.Output(clone), golden)
	if err != nil {
		return 0, err
	}
	if sdc {
		return fault.SDC, nil
	}
	return fault.Masked, nil
}

// Fig6Config sizes the hot-vs-rest vulnerability campaigns.
type Fig6Config struct {
	// Runs is the fault-injection count per configuration. Default 1000,
	// the paper's count (95% CI ±3%).
	Runs int
	// Seed makes campaigns reproducible. Default 7. Every run's random
	// stream is derived from (Seed, run index), so results are independent
	// of worker scheduling.
	Seed int64
	// Models overrides the fault models. Default: DefaultFaultModels(),
	// the paper's six {1,5} blocks × {2,3,4} bits configurations.
	Models []fault.Model
	// Apps restricts the application set. Default: the evaluated eight of
	// Table II.
	Apps []string
}

func (c Fig6Config) withDefaults() Fig6Config {
	if c.Runs == 0 {
		c.Runs = 1000
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if len(c.Models) == 0 {
		c.Models = DefaultFaultModels()
	}
	return c
}

// Fig6Cell is one bar of Fig. 6.
type Fig6Cell struct {
	App string
	// Space is "hot" or "rest".
	Space string
	// Model identifies the fault configuration (serializable: cells
	// persist through the gob-encoded result store).
	Model fault.ModelInfo
	// Result holds the campaign outcome counts.
	Result fault.Result
}

// fig6HotVsRest is Fig6HotVsRest's compute path (store miss): applications
// fan out over the suite's worker pool; each application's campaigns run
// its space × model grid in the serial order, so the returned cells match
// a serial run exactly. The wrapper has already resolved defaults.
func fig6HotVsRest(s *Suite, cfg Fig6Config) ([]Fig6Cell, error) {
	apps := cfg.Apps
	perApp := make([][]Fig6Cell, len(apps))
	err := s.runTasks("fig6: campaigns", len(apps), func(i int) error {
		cells, err := fig6App(s, cfg, apps[i])
		if err != nil {
			return err
		}
		perApp[i] = cells
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []Fig6Cell
	for _, cells := range perApp {
		out = append(out, cells...)
	}
	return out, nil
}

// SpaceBlocks returns the named application's injection block space:
// "hot" is the accessed blocks of the hot data objects, "rest" every
// other accessed block (Fig. 5's division of the sorted profile). The
// block order follows the profile, so selectors built from it are
// deterministic. Fig. 6 and the public API's hot and rest targets draw
// from it.
func (s *Suite) SpaceBlocks(name, space string) ([]arch.BlockAddr, error) {
	app, err := s.App(name)
	if err != nil {
		return nil, err
	}
	p, err := s.Profile(name)
	if err != nil {
		return nil, err
	}
	hotNames := make(map[string]bool, app.HotCount)
	for _, o := range app.HotObjects() {
		hotNames[o.Name] = true
	}
	var blocks []arch.BlockAddr
	for _, b := range p.Blocks {
		if hotNames[b.Object] == (space == "hot") {
			blocks = append(blocks, b.Block)
		}
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("experiments: %s has no %s blocks", name, space)
	}
	return blocks, nil
}

// fig6App runs one application's hot and rest campaigns across every fault
// model.
func fig6App(s *Suite, cfg Fig6Config, name string) ([]Fig6Cell, error) {
	cp, err := s.Checkpoint(name, core.None, 0)
	if err != nil {
		return nil, err
	}
	hotBlocks, err := s.SpaceBlocks(name, "hot")
	if err != nil {
		return nil, err
	}
	restBlocks, err := s.SpaceBlocks(name, "rest")
	if err != nil {
		return nil, err
	}
	spaces := []struct {
		label  string
		blocks []arch.BlockAddr
	}{
		{"hot", hotBlocks},
		{"rest", restBlocks},
	}
	var out []Fig6Cell
	for _, sp := range spaces {
		if len(sp.blocks) == 0 {
			return nil, fmt.Errorf("experiments: %s has no %s blocks", name, sp.label)
		}
		sel, err := fault.NewSetSelector(sp.blocks)
		if err != nil {
			return nil, err
		}
		for _, model := range cfg.Models {
			res, err := cp.Campaign(s.campaign(cfg.Runs, cfg.Seed), model, sel)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig6 %s/%s/%v: %w", name, sp.label, model, err)
			}
			out = append(out, Fig6Cell{App: name, Space: sp.label, Model: fault.Info(model), Result: res})
		}
	}
	return out, nil
}
