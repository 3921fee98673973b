package experiments

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
)

// BreakdownConfig sizes the fault-model × scheme outcome-breakdown
// experiment.
type BreakdownConfig struct {
	// Runs is the fault-injection count per configuration. Default 1000,
	// the paper's count (95% CI ±3%).
	Runs int
	// Seed makes campaigns reproducible. Default 13. Every run's random
	// stream is derived from (Seed, run index), so results are independent
	// of worker scheduling.
	Seed int64
	// Models overrides the fault models. Default: DefaultBreakdownModels(),
	// one representative configuration per model family.
	Models []fault.Model
	// Apps restricts the application set. Default: all ten applications,
	// counter-examples included.
	Apps []string
	// Schemes overrides the protection schemes swept at each application's
	// hot level. Default: detection and detection+correction (the
	// unprotected baseline is always included).
	Schemes []core.Scheme
}

func (c BreakdownConfig) withDefaults() BreakdownConfig {
	if c.Runs == 0 {
		c.Runs = 1000
	}
	if c.Seed == 0 {
		c.Seed = 13
	}
	if len(c.Models) == 0 {
		c.Models = DefaultBreakdownModels()
	}
	if len(c.Schemes) == 0 {
		c.Schemes = []core.Scheme{core.Detection, core.Correction}
	}
	return c
}

// DefaultBreakdownModels is the breakdown experiment's model sweep: one
// representative configuration per model family, chosen so every outcome
// class appears — the paper's 3-bit stuck-at pattern, a 2-flip transient
// (SECDED-detected uncorrectable: the DUE-dominant case), a 3-flip
// transient (aliases past SECDED: the SDC/masked case with store-overwrite
// masking), and a 2×2 adjacent-bit/adjacent-word burst.
func DefaultBreakdownModels() []fault.Model {
	return []fault.Model{
		fault.StuckAt{BitsPerWord: 3, Blocks: 1},
		fault.Transient{Flips: 2, Blocks: 1},
		fault.Transient{Flips: 3, Blocks: 1},
		fault.Burst{Width: 2, Words: 2, Blocks: 1},
	}
}

// BreakdownCell is one (application, scheme, model) bar of the breakdown
// figure: the full outcome distribution of one campaign.
type BreakdownCell struct {
	App    string
	Scheme core.Scheme
	// Level is the protected-object count (0 = unprotected baseline; the
	// protected configurations use the application's hot-object count).
	Level int
	// Model identifies the fault configuration (serializable: cells
	// persist through the gob-encoded result store).
	Model  fault.ModelInfo
	Result fault.Result
}

// FaultModelBreakdown runs the fault-model × scheme outcome-breakdown
// experiment, served through the result store: for every application,
// inject each configured fault model uniformly across the whole data
// space (replicas included, so protected configurations expose the
// detection/correction paths) under the unprotected baseline and each
// scheme at the application's hot level, and report the full outcome
// distribution — including DUE — per cell. Model identities fold into the
// store key via fault.ModelsKey, so results computed under different
// model sets never alias.
func FaultModelBreakdown(s *Suite, cfg BreakdownConfig) ([]BreakdownCell, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Apps) == 0 {
		cfg.Apps = s.AllNames()
	}
	return figureResult(s, "breakdown",
		s.key("breakdown").
			Field("runs", cfg.Runs).
			Field("seed", cfg.Seed).
			Field("models", fault.ModelsKey(cfg.Models)).
			Field("apps", cfg.Apps).
			Field("schemes", cfg.Schemes),
		func() ([]BreakdownCell, error) { return faultModelBreakdown(s, cfg) })
}

// faultModelBreakdown is FaultModelBreakdown's compute path (store miss):
// each (application, scheme, level) configuration is one task on the
// suite's worker pool and sweeps every model serially, so cells are
// assembled in the serial order and output is identical at any worker
// count. The wrapper has already resolved defaults.
func faultModelBreakdown(s *Suite, cfg BreakdownConfig) ([]BreakdownCell, error) {
	type task struct {
		app    string
		scheme core.Scheme
		level  int
	}
	var tasks []task
	for _, name := range cfg.Apps {
		base, err := s.App(name)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, task{name, core.None, 0})
		for _, scheme := range cfg.Schemes {
			tasks = append(tasks, task{name, scheme, base.HotCount})
		}
	}

	perTask := make([][]BreakdownCell, len(tasks))
	err := s.runTasks("breakdown: campaigns", len(tasks), func(i int) error {
		t := tasks[i]
		cp, err := s.Checkpoint(t.app, t.scheme, t.level)
		if err != nil {
			return err
		}
		// Uniform whole-space selection: every block of the prepared image,
		// replicas included. Unlike Fig. 9's miss-weighted selector this
		// needs no timing replay per configuration and is well defined for
		// the counter-example applications too.
		blocks := make([]arch.BlockAddr, cp.App.Mem.TotalBlocks())
		for b := range blocks {
			blocks[b] = arch.BlockAddr(b)
		}
		sel, err := fault.NewSetSelector(blocks)
		if err != nil {
			return err
		}
		cells := make([]BreakdownCell, 0, len(cfg.Models))
		for _, model := range cfg.Models {
			res, err := cp.Campaign(s.campaign(cfg.Runs, cfg.Seed), model, sel)
			if err != nil {
				return fmt.Errorf("experiments: breakdown %s %v L%d %v: %w",
					t.app, t.scheme, t.level, model, err)
			}
			cells = append(cells, BreakdownCell{
				App: t.app, Scheme: t.scheme, Level: t.level,
				Model: fault.Info(model), Result: res,
			})
		}
		perTask[i] = cells
		return nil
	})
	if err != nil {
		return nil, err
	}

	var out []BreakdownCell
	for _, cells := range perTask {
		out = append(out, cells...)
	}
	return out, nil
}
