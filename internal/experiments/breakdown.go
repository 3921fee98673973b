package experiments

import (
	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/kernels"
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

// FaultModelBreakdown runs the fault-model × scheme outcome-breakdown
// experiment, served through the result store: for every application,
// inject each configured fault model uniformly across the whole data
// space (replicas included, so protected configurations expose the
// detection/correction paths) under the unprotected baseline and each
// scheme at the application's hot level, and report the full outcome
// distribution — including DUE — per cell. Model identities fold into the
// store key via fault.ModelsKey, so results computed under different
// model sets never alias.
func FaultModelBreakdown(s *Suite, cfg BreakdownConfig) ([]Fig9Cell, error) {
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
		func() ([]Fig9Cell, error) { return faultModelBreakdown(s, cfg) })
}

// faultModelBreakdown is FaultModelBreakdown's compute path (store miss):
// Fig. 9's sweep at each application's hot level, with every block of the
// prepared image, replicas included, equally likely. Unlike Fig. 9's
// miss-weighted selector this needs no timing replay per configuration and
// is well defined for the counter-example applications too. The wrapper
// has already resolved defaults.
func faultModelBreakdown(s *Suite, cfg BreakdownConfig) ([]Fig9Cell, error) {
	hot := func(app *kernels.App) []int { return []int{app.HotCount} }
	cfgs, err := s.configs(cfg.Apps, cfg.Schemes, hot)
	if err != nil {
		return nil, err
	}
	return sweep(s, "breakdown", cfgs, uniformSelector, cfg.Models, cfg.Runs, cfg.Seed)
}

// uniformSelector draws from every block of the checkpoint's prepared
// image with equal probability.
func uniformSelector(cp *Checkpoint) (fault.Selector, error) {
	blocks := make([]arch.BlockAddr, cp.App.Mem.TotalBlocks())
	for b := range blocks {
		blocks[b] = arch.BlockAddr(b)
	}
	return fault.NewSetSelector(blocks)
}
