package experiments

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/timing"
)

// EagerPlan wraps a detection plan but stalls for both copies before the
// load completes — the design point the paper's lazy comparison avoids.
// Timing-path only.
type EagerPlan struct {
	*core.Plan
}

// Lazy reports false: loads wait for every copy.
func (EagerPlan) Lazy() bool { return false }

// SameChannelPlan wraps a plan but places every replica block on the same
// memory channel as its primary, removing the channel-level parallelism the
// natural distinct-address placement provides. Timing-path only: the
// remapped addresses land beyond the allocated image, which the timing
// simulator (tags only) is indifferent to.
type SameChannelPlan struct {
	*core.Plan
	// Stride is the replica offset in blocks; it must be a multiple of the
	// channel count so the channel assignment is preserved.
	Stride arch.BlockAddr
}

// NewSameChannelPlan wraps the plan with a channel-preserving stride placed
// beyond the application's address space.
func NewSameChannelPlan(p *core.Plan, memBlocks int, channels int) (*SameChannelPlan, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("experiments: channels must be positive, got %d", channels)
	}
	stride := (memBlocks/channels + 1) * channels
	return &SameChannelPlan{Plan: p, Stride: arch.BlockAddr(stride)}, nil
}

// ReplicaBlock maps copy c of a primary block to primary + c·Stride: the
// same channel, a distant row.
func (p *SameChannelPlan) ReplicaBlock(bufID int16, primary arch.BlockAddr, copy int) arch.BlockAddr {
	if p.Copies(0, bufID) <= 1 {
		return primary
	}
	return primary + p.Stride*arch.BlockAddr(copy)
}

// Interface checks.
var (
	_ timing.ProtectionPlan = EagerPlan{}
	_ timing.ProtectionPlan = (*SameChannelPlan)(nil)
)

// AblationResult compares a design choice on one application.
type AblationResult struct {
	App string
	// Label names the ablation ("lazy-vs-eager", …).
	Label string
	// BaselineCycles is the paper-design cycles; VariantCycles the ablated
	// design's.
	BaselineCycles int64
	VariantCycles  int64
}

// Ratio returns variant/baseline execution time.
func (a AblationResult) Ratio() float64 {
	if a.BaselineCycles == 0 {
		return 0
	}
	return float64(a.VariantCycles) / float64(a.BaselineCycles)
}

// runTiming replays the app's traces under the given plan and options.
func runTiming(s *Suite, name string, plan timing.ProtectionPlan,
	policy timing.SchedulerPolicy, compareBuf int) (int64, error) {
	app, err := s.App(name)
	if err != nil {
		return 0, err
	}
	traces, err := app.TraceRun(nil)
	if err != nil {
		return 0, err
	}
	eng, err := timing.New(arch.Default(), plan)
	if err != nil {
		return 0, err
	}
	if policy != 0 {
		eng.Policy = policy
	}
	if compareBuf > 0 {
		eng.CompareBufferSize = compareBuf
	}
	st, err := eng.RunApp(name, traces)
	if err != nil {
		return 0, err
	}
	return st.TotalCycles(), nil
}

// AblationLazyCompare measures detection with lazy versus eager comparison.
// All objects are protected so the comparison happens on the miss-dominated
// path where laziness matters (hot objects alone are largely L1-resident).
func AblationLazyCompare(s *Suite, name string) (AblationResult, error) {
	app, err := s.App(name)
	if err != nil {
		return AblationResult{}, err
	}
	_, plan, err := s.PlanFor(name, core.Detection, len(app.Objects))
	if err != nil {
		return AblationResult{}, err
	}
	lazy, err := runTiming(s, name, plan, 0, 0)
	if err != nil {
		return AblationResult{}, err
	}
	eager, err := runTiming(s, name, EagerPlan{plan}, 0, 0)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{App: name, Label: "lazy-vs-eager", BaselineCycles: lazy, VariantCycles: eager}, nil
}

// AblationScheduler measures GTO versus LRR under hot-object correction.
func AblationScheduler(s *Suite, name string) (AblationResult, error) {
	app, err := s.App(name)
	if err != nil {
		return AblationResult{}, err
	}
	_, plan, err := s.PlanFor(name, core.Correction, app.HotCount)
	if err != nil {
		return AblationResult{}, err
	}
	var tplan timing.ProtectionPlan
	if plan != nil {
		tplan = plan
	}
	gto, err := runTiming(s, name, tplan, timing.GTO, 0)
	if err != nil {
		return AblationResult{}, err
	}
	lrr, err := runTiming(s, name, tplan, timing.LRR, 0)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{App: name, Label: "gto-vs-lrr", BaselineCycles: gto, VariantCycles: lrr}, nil
}

// AblationPlacement measures distinct-channel versus same-channel replica
// placement under hot-object correction.
func AblationPlacement(s *Suite, name string) (AblationResult, error) {
	app, err := s.App(name)
	if err != nil {
		return AblationResult{}, err
	}
	planApp, plan, err := s.PlanFor(name, core.Correction, app.HotCount)
	if err != nil {
		return AblationResult{}, err
	}
	if plan == nil {
		return AblationResult{}, fmt.Errorf("experiments: %s has nothing to protect", name)
	}
	natural, err := runTiming(s, name, plan, 0, 0)
	if err != nil {
		return AblationResult{}, err
	}
	same, err := NewSameChannelPlan(plan, planApp.Mem.TotalBlocks(), arch.Default().NumMemChannels)
	if err != nil {
		return AblationResult{}, err
	}
	sameCycles, err := runTiming(s, name, same, 0, 0)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{App: name, Label: "placement", BaselineCycles: natural, VariantCycles: sameCycles}, nil
}

// AblationCompareBuffer sweeps the pending-compare buffer size under
// hot-object detection.
func AblationCompareBuffer(s *Suite, name string, sizes []int) (map[int]int64, error) {
	app, err := s.App(name)
	if err != nil {
		return nil, err
	}
	_, plan, err := s.PlanFor(name, core.Detection, app.HotCount)
	if err != nil {
		return nil, err
	}
	out := make(map[int]int64, len(sizes))
	for _, size := range sizes {
		cycles, err := runTiming(s, name, plan, 0, size)
		if err != nil {
			return nil, err
		}
		out[size] = cycles
	}
	return out, nil
}
