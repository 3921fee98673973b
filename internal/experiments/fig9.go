package experiments

import (
	"fmt"
	"slices"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/kernels"
	"github.com/datacentric-gpu/dcrm/internal/simt"
	"github.com/datacentric-gpu/dcrm/internal/timing"
)

// Fig9Config sizes the resilience evaluation.
type Fig9Config struct {
	// Runs is the fault-injection count per configuration. Default 1000,
	// the paper's count (95% CI ±3%).
	Runs int
	// Seed makes campaigns reproducible. Default 11. Every run's random
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

// protectingSchemes are the schemes every sweep covers — detection and
// detection+correction — next to each application's unprotected baseline.
var protectingSchemes = []core.Scheme{core.Detection, core.Correction}

func (c Fig9Config) withDefaults() Fig9Config {
	if c.Runs == 0 {
		c.Runs = 1000
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	if len(c.Models) == 0 {
		c.Models = DefaultFaultModels()
	}
	return c
}

// Fig9Cell is one bar of Fig. 9, or of the outcome breakdown: the full
// outcome distribution of one (application, scheme, level, model)
// campaign.
type Fig9Cell struct {
	App    string
	Scheme core.Scheme
	// Level is the cumulative number of protected objects (0 = baseline;
	// plotted once under scheme None; the breakdown protects the
	// application's hot objects).
	Level int
	// Model identifies the fault configuration (serializable: cells
	// persist through the gob-encoded result store).
	Model  fault.ModelInfo
	Result fault.Result
}

// weightConfig is the GPU configuration used to collect the Fig. 8 miss
// histogram: Table I with the L1 cut to 2 KB and the L2 to 32 KB per
// channel, the same at every workload scale. At the paper's full problem
// sizes the 16 KB L1 thrashes under the streaming matrix/image traffic and
// the hot blocks miss on most of their re-references, which is what
// exposes them to the L2/DRAM fault domain; the scaled inputs would
// otherwise fit comfortably and hide that behaviour. The performance
// experiments (Fig. 7) keep the unscaled Table I hierarchy.
func weightConfig() arch.Config {
	cfg := arch.Default()
	cfg.L1.SizeBytes = 2 * 1024
	cfg.L2.SizeBytes = 32 * 1024
	return cfg
}

// MissWeightedSelector builds the Fig. 8 block selector for one protected
// application instance: a timing run (with the plan's replica traffic)
// produces the per-block L1-miss histogram, and injection probability is
// proportional to it — misses expose data to the L2/DRAM fault domain.
// It captures the instance's traces itself. The int parameter is ignored;
// it is deprecated and will be removed.
func MissWeightedSelector(app *kernels.App, plan *core.Plan, _ int) (fault.Selector, error) {
	traces, err := app.TraceRun()
	if err != nil {
		return nil, err
	}
	art, err := replayExposure(app.Name, plan, traces)
	if err != nil {
		return nil, err
	}
	return art.selector(app.Name)
}

// replayExposure replays the application's traces under the plan on the
// Fig. 8 hierarchy (weightConfig) with a timing.BlockLog attached: the one
// replay per protection configuration whose L1 misses weight Fig. 9's
// block selection and whose store commits decide the transient model's
// overwrite masking — both questions about the L2/DRAM fault domain the
// scaled hierarchy exposes data to. Blocks come out in ascending order:
// map order would make seeded campaigns irreproducible.
func replayExposure(app string, plan *core.Plan, traces []*simt.KernelTrace) (exposureArtifact, error) {
	eng, err := timing.New(weightConfig(), enginePlan(plan))
	if err != nil {
		return exposureArtifact{}, err
	}
	log := timing.NewBlockLog()
	eng.Blocks = log
	stats, err := eng.RunApp(app, traces)
	if err != nil {
		return exposureArtifact{}, err
	}
	art := exposureArtifact{Blocks: sortedBlocks(log.Misses), TotalCycles: max(stats.TotalCycles(), 1),
		StoreBlocks: sortedBlocks(log.LastStore)}
	for _, b := range art.Blocks {
		art.Weights = append(art.Weights, float64(log.Misses[b]))
	}
	for _, b := range art.StoreBlocks {
		art.StoreCycles = append(art.StoreCycles, log.LastStore[b])
	}
	return art, nil
}

// sortedBlocks returns a block map's keys in ascending order.
func sortedBlocks[V any](m map[arch.BlockAddr]V) []arch.BlockAddr {
	blocks := make([]arch.BlockAddr, 0, len(m))
	for b := range m {
		blocks = append(blocks, b)
	}
	slices.Sort(blocks)
	return blocks
}

// fig9Resilience is Fig9Resilience's compute path (store miss): inject
// faults across the whole application address space (block choice weighted
// by L1-missed accesses, replicas included) and count SDC outcomes as
// protection cumulatively covers more data objects under each scheme
// (protectingSchemes). The wrapper has already resolved defaults.
func fig9Resilience(s *Suite, cfg Fig9Config) ([]Fig9Cell, error) {
	cfgs, err := s.configs(cfg.Apps, protectingSchemes, protectedLevels)
	if err != nil {
		return nil, err
	}
	return sweep(s, "fig9", cfgs, (*Checkpoint).MissSelector, cfg.Models, cfg.Runs, cfg.Seed)
}

// sweep runs one campaign grid. Each configuration — checkpoint lookup,
// its selector (for Fig. 9 a miss-weighted timing run), and one campaign
// per model — is one task unit on the suite's worker pool, under the
// progress phase "<name>: campaigns". Cells come back in the serial sweep
// order, configuration-major, so output is identical at any worker count.
func sweep(s *Suite, name string, cfgs []checkpointConfig, selector func(*Checkpoint) (fault.Selector, error),
	models []fault.Model, runs int, seed int64) ([]Fig9Cell, error) {
	perTask, err := fanOut(s, name+": campaigns", len(cfgs), func(i int) ([]Fig9Cell, error) {
		c := cfgs[i]
		cp, err := s.Checkpoint(c.app, c.scheme, c.level)
		if err != nil {
			return nil, err
		}
		sel, err := selector(cp)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %s %v L%d: %w", name, c.app, c.scheme, c.level, err)
		}
		cells := make([]Fig9Cell, 0, len(models))
		for _, model := range models {
			res, err := cp.Campaign(s.campaign(runs, seed), model, sel)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s %s %v L%d %v: %w", name, c.app, c.scheme, c.level, model, err)
			}
			cells = append(cells, Fig9Cell{App: c.app, Scheme: c.scheme, Level: c.level, Model: fault.Info(model), Result: res})
		}
		return cells, nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(perTask...), nil
}

// SDCDropPercent computes the paper's headline reliability number: the
// average percentage drop in SDC outcomes when hot objects are protected,
// relative to the unprotected baseline, across every fault configuration
// and both schemes (paper: 98.97%).
func SDCDropPercent(cells []Fig9Cell, hotLevels map[string]int) float64 {
	type key struct {
		app   string
		model fault.ModelInfo
	}
	baseline := make(map[key]int)
	for _, c := range cells {
		if c.Scheme == core.None && c.Level == 0 {
			baseline[key{c.App, c.Model}] = c.Result.SDCRuns
		}
	}
	var drop float64
	n := 0
	for _, c := range cells {
		if c.Scheme == core.None || c.Level != hotLevels[c.App] {
			continue
		}
		base := baseline[key{c.App, c.Model}]
		if base == 0 {
			continue // baseline already SDC-free; no drop to measure
		}
		drop += 100 * float64(base-c.Result.SDCRuns) / float64(base)
		n++
	}
	if n == 0 {
		return 0
	}
	return drop / float64(n)
}
