package experiments

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/timing"
)

// Timeline returns the checkpoint's memoized store-commit timeline: one
// instrumented timing replay with the engine's OnStore injection hook
// attached records the last store-commit cycle of every block plus the
// replay's total span. The transient fault model consults it on every run
// to decide whether a later store overwrites (masks) the injected flip, so
// the per-checkpoint cost is one replay — shared by all of the
// checkpoint's campaigns, like the miss selector's replay — or one store
// fetch when an earlier process already persisted the timeline artifact.
func (cp *Checkpoint) Timeline() (*fault.Timeline, error) {
	cp.timelineOnce.Do(func() {
		cp.timeline, cp.timelineErr = artifactDo(cp, ArtifactTimeline, func() (*fault.Timeline, error) {
			return captureTimeline(cp)
		})
		if cp.timelineErr == nil {
			cp.addLazyBytes(timelineFootprint(cp.timeline))
		}
	})
	return cp.timeline, cp.timelineErr
}

// captureTimeline performs the instrumented replay. It uses the same
// scaled-cache configuration as the Fig. 8 miss histogram (weightConfig):
// the timeline answers a question about the L2/DRAM fault domain, and the
// scaled hierarchy is the one that exposes data to it.
func captureTimeline(cp *Checkpoint) (*fault.Timeline, error) {
	traces, err := cp.traces()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s timeline trace: %w", cp.App.Name, err)
	}
	var tplan timing.ProtectionPlan
	if cp.Plan != nil {
		tplan = cp.Plan
	}
	eng, err := timing.New(weightConfig(), tplan)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s timeline engine: %w", cp.App.Name, err)
	}
	last := make(map[arch.BlockAddr]int64)
	eng.OnStore = func(blk arch.BlockAddr, at int64) {
		if at > last[blk] {
			last[blk] = at
		}
	}
	stats, err := eng.RunApp(cp.App.Name, traces)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s timeline replay: %w", cp.App.Name, err)
	}
	total := stats.TotalCycles()
	if total < 1 {
		total = 1
	}
	return &fault.Timeline{TotalCycles: total, LastStore: last}, nil
}
