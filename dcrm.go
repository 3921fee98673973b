// Package dcrm is a data-centric reliability management library for GPU
// workloads, reproducing "Data-centric Reliability Management in GPUs"
// (DSN 2021). It identifies an application's hot data objects — small,
// read-only, highly accessed, shared across warps — and protects exactly
// those against multi-bit memory faults by partial replication:
// duplication with lazy comparison for detection, triplication with
// majority voting for detection-and-correction.
//
// The library bundles everything the paper's evaluation needs: a
// cycle-level GPU timing simulator (SMs, warp schedulers, coalescing L1s
// with MSHRs, a crossbar, banked L2, FR-FCFS GDDR5 controllers), the ten
// GPGPU applications of the study, a stuck-at multi-bit fault injector with
// campaign statistics, and per-application output-quality metrics.
//
// Basic use:
//
//	lib, err := dcrm.New()
//	w, err := lib.Workload("P-BICG")
//	report, err := w.Profile()                   // hot-object analysis
//	res, err := w.Campaign(dcrm.CampaignConfig{  // fault injection
//	    Scheme: dcrm.Detection,
//	    Faults: dcrm.FaultModel{Bits: 2, Blocks: 1},
//	    Runs:   1000,
//	})
//	perf, err := w.Performance(dcrm.Detection, w.HotObjectCount())
package dcrm

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/profile"
	"github.com/datacentric-gpu/dcrm/internal/timing"
)

// Scheme selects a resilience scheme.
type Scheme int

// Supported schemes.
const (
	// Baseline runs without protection.
	Baseline Scheme = iota + 1
	// Detection duplicates hot data and compares copies lazily; a mismatch
	// terminates the run (ErrFaultDetected).
	Detection
	// Correction triplicates hot data and repairs faults by majority vote.
	Correction
)

// String renders the scheme.
func (s Scheme) String() string { return s.internal().String() }

func (s Scheme) internal() core.Scheme {
	switch s {
	case Detection:
		return core.Detection
	case Correction:
		return core.Correction
	default:
		return core.None
	}
}

// ErrFaultDetected is returned (wrapped) when the detection scheme
// terminates a run after a copy mismatch.
var ErrFaultDetected = core.ErrFaultDetected

// FaultModel is one multi-bit stuck-at fault configuration (Section II-C).
type FaultModel struct {
	// Bits stuck per targeted 32-bit word (the paper uses 2–4).
	Bits int
	// Blocks made faulty per run (the paper uses 1 and 5).
	Blocks int
}

func (m FaultModel) internal() fault.Model {
	return fault.StuckAt{BitsPerWord: m.Bits, Blocks: m.Blocks}
}

// Target selects which memory the fault injector aims at.
type Target int

// Injection targets.
const (
	// TargetWeighted injects across the whole address space with
	// probability proportional to per-block L1-missed accesses — the
	// paper's Fig. 8 methodology and the default.
	TargetWeighted Target = iota + 1
	// TargetHot injects only into hot data-object blocks.
	TargetHot
	// TargetRest injects only into accessed non-hot blocks.
	TargetRest
)

// Library is the entry point: it builds and caches the bundled workloads
// (constructing the C-NN classifier once). The underlying suite memoizes
// per-workload artifacts behind once-guarded entries, so a Library is safe
// for concurrent use.
type Library struct {
	suite *experiments.Suite
}

// Option configures New.
type Option func(*experiments.SuiteConfig)

// WithSeed fixes the seed for every deterministic component.
func WithSeed(seed int64) Option {
	return func(c *experiments.SuiteConfig) { c.Seed = seed }
}

// WithFastNN shrinks the C-NN training set; useful in tests.
func WithFastNN() Option {
	return func(c *experiments.SuiteConfig) { c.NNTrainSamples = 60 }
}

// WorkloadScale selects the bundled applications' input sizes.
type WorkloadScale = experiments.Scale

// Workload scales re-exported for WithScale.
const (
	// ScaleSmall (default) runs the full evaluation in minutes.
	ScaleSmall = experiments.ScaleSmall
	// ScaleMedium roughly quadruples the footprints.
	ScaleMedium = experiments.ScaleMedium
	// ScaleLarge approaches the paper's input sizes.
	ScaleLarge = experiments.ScaleLarge
)

// WithScale selects the workload input scale.
func WithScale(s WorkloadScale) Option {
	return func(c *experiments.SuiteConfig) { c.Scale = s }
}

// WithWorkers bounds the suite-level experiment fan-out (0, the default,
// means GOMAXPROCS). Results are identical at any worker count; only
// wall-clock time changes.
func WithWorkers(n int) Option {
	return func(c *experiments.SuiteConfig) { c.Workers = n }
}

// New builds a library.
func New(opts ...Option) (*Library, error) {
	cfg := experiments.SuiteConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	s, err := experiments.NewSuite(cfg)
	if err != nil {
		return nil, err
	}
	return &Library{suite: s}, nil
}

// Applications lists the bundled workloads (the paper's ten applications).
func (l *Library) Applications() []string { return l.suite.AllNames() }

// EvaluatedApplications lists the eight applications of the paper's main
// evaluation.
func (l *Library) EvaluatedApplications() []string { return l.suite.EvaluatedNames() }

// Workload opens one application.
func (l *Library) Workload(name string) (*Workload, error) {
	app, err := l.suite.App(name)
	if err != nil {
		return nil, err
	}
	return &Workload{lib: l, name: name, hotCount: app.HotCount}, nil
}

// Workload is one GPGPU application ready for analysis, fault injection,
// and performance evaluation.
type Workload struct {
	lib      *Library
	name     string
	hotCount int
}

// Name returns the application label.
func (w *Workload) Name() string { return w.name }

// HotObjectCount returns the number of hot data objects (the protection
// level the paper's schemes use).
func (w *Workload) HotObjectCount() int { return w.hotCount }

// ObjectInfo describes one input data object.
type ObjectInfo struct {
	// Name is the source-level data object name.
	Name string
	// SizeBytes is its allocation size.
	SizeBytes int
	// Reads counts coalesced read transactions observed during profiling.
	Reads uint64
	// Hot marks the objects the paper's analysis would replicate.
	Hot bool
	// ReadOnly marks replication-eligible objects.
	ReadOnly bool
}

// ProfileReport summarises the offline access-pattern analysis
// (Section III-B / Table III).
type ProfileReport struct {
	// App is the application label.
	App string
	// Objects are the input data objects ranked by access concentration.
	Objects []ObjectInfo
	// HotSizePercent is the hot objects' share of total device memory.
	HotSizePercent float64
	// HotAccessPercent is the hot objects' share of all read accesses.
	HotAccessPercent float64
	// MaxMinRatio is the hottest/coldest block access ratio (Fig. 3).
	MaxMinRatio float64
	// HotPattern reports whether the profile shows the hot knee that makes
	// the application a candidate for data-centric protection.
	HotPattern bool
}

// Profile runs the offline access-pattern analysis.
func (w *Workload) Profile() (ProfileReport, error) {
	app, err := w.lib.suite.App(w.name)
	if err != nil {
		return ProfileReport{}, err
	}
	p, err := w.lib.suite.Profile(w.name)
	if err != nil {
		return ProfileReport{}, err
	}
	hot := make(map[string]bool, app.HotCount)
	for _, o := range app.HotObjects() {
		hot[o.Name] = true
	}
	rep := ProfileReport{
		App:              w.name,
		HotSizePercent:   p.HotSizePercent(app.HotObjects()),
		HotAccessPercent: p.HotAccessPercent(app.HotObjects()),
		MaxMinRatio:      p.MaxMinRatio(),
		HotPattern:       p.HasHotPattern(),
	}
	for _, o := range p.Objects {
		rep.Objects = append(rep.Objects, ObjectInfo{
			Name:      o.Name,
			SizeBytes: o.SizeBytes,
			Reads:     o.Reads,
			Hot:       hot[o.Name],
			ReadOnly:  o.ReadOnly,
		})
	}
	return rep, nil
}

// CampaignConfig configures a fault-injection campaign.
type CampaignConfig struct {
	// Scheme selects the protection evaluated (default Baseline).
	Scheme Scheme
	// Level is the cumulative number of protected objects (default: the
	// hot-object count when a scheme is enabled). Ignored when Objects is
	// set.
	Level int
	// Objects names the data objects to protect explicitly, e.g. the
	// result of AutoHotObjects. Overrides Level.
	Objects []string
	// Faults is the fault model (default 2 bits, 1 block).
	Faults FaultModel
	// Runs is the number of independent injections (default 1000).
	Runs int
	// Seed makes the campaign reproducible (default 1).
	Seed int64
	// Target selects the injection space (default TargetWeighted).
	Target Target
}

// CampaignResult reports campaign outcome counts.
type CampaignResult struct {
	// Runs executed.
	Runs int
	// SDC is the silent-data-corruption count — the paper's headline
	// reliability metric.
	SDC int
	// Detected counts detection-scheme terminations (DUEs).
	Detected int
	// Masked counts runs whose output stayed within the quality threshold
	// (including faults repaired by correction).
	Masked int
	// Crashed counts runs aborted by fault-induced failures.
	Crashed int
	// DUE counts detected-uncorrectable errors: the fault was caught by
	// ECC or duplication but could not be repaired, aborting the run.
	DUE int
	// ConfidencePct is the 95% confidence half-width of the SDC rate, in
	// percentage points.
	ConfidencePct float64
}

// Campaign runs a fault-injection campaign against the workload.
func (w *Workload) Campaign(cfg CampaignConfig) (CampaignResult, error) {
	if cfg.Runs == 0 {
		cfg.Runs = 1000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Faults.Bits == 0 {
		cfg.Faults.Bits = 2
	}
	if cfg.Faults.Blocks == 0 {
		cfg.Faults.Blocks = 1
	}
	if cfg.Scheme == 0 {
		cfg.Scheme = Baseline
	}
	if cfg.Level == 0 && cfg.Scheme != Baseline {
		cfg.Level = w.hotCount
	}
	if cfg.Target == 0 {
		cfg.Target = TargetWeighted
	}
	if err := cfg.Faults.internal().Validate(); err != nil {
		return CampaignResult{}, err
	}

	suite := w.lib.suite
	var cp *experiments.Checkpoint
	var err error
	if len(cfg.Objects) > 0 {
		cp, err = suite.CheckpointForObjects(w.name, cfg.Scheme.internal(), cfg.Objects)
	} else {
		cp, err = suite.Checkpoint(w.name, cfg.Scheme.internal(), cfg.Level)
	}
	if err != nil {
		return CampaignResult{}, err
	}

	sel, err := w.selector(cp, cfg.Target)
	if err != nil {
		return CampaignResult{}, err
	}

	res, err := cp.Campaign(fault.Campaign{Runs: cfg.Runs, Seed: cfg.Seed}, cfg.Faults.internal(), sel)
	if err != nil {
		return CampaignResult{}, err
	}
	return CampaignResult{
		Runs:          res.Runs,
		SDC:           res.SDCRuns,
		Detected:      res.DetectedRuns,
		Masked:        res.MaskedRuns,
		Crashed:       res.CrashedRuns,
		DUE:           res.DUERuns,
		ConfidencePct: 100 * res.ConfidenceHalfWidth(),
	}, nil
}

// selector builds the fault selector for the configured target space.
func (w *Workload) selector(cp *experiments.Checkpoint, target Target) (fault.Selector, error) {
	switch target {
	case TargetWeighted:
		// Memoized on the checkpoint: the timing run behind the miss
		// histogram happens once per (app, scheme, level), over the app's
		// one recording.
		return cp.MissSelector()
	case TargetHot, TargetRest:
		space := "rest"
		if target == TargetHot {
			space = "hot"
		}
		blocks, err := w.lib.suite.SpaceBlocks(w.name, space)
		if err != nil {
			return nil, err
		}
		return fault.NewSetSelector(blocks)
	default:
		return nil, fmt.Errorf("dcrm: unknown target %d", int(target))
	}
}

// AutoHotObjects identifies the workload's hot data objects from its
// access profile alone — the automated flow the paper sketches for unknown
// applications (Section IV-C, NVBit-style instrumentation) — returning
// their names in protection-priority order. For the bundled applications
// the result matches the source-analysis ground truth (a small superset
// for C-NN at scaled batch sizes). Feed the names to
// CampaignConfig.Objects or PerformanceObjects.
func (w *Workload) AutoHotObjects() ([]string, error) {
	app, err := w.lib.suite.App(w.name)
	if err != nil {
		return nil, err
	}
	p, err := w.lib.suite.Profile(w.name)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, o := range p.IdentifyHotObjects(app.Objects, profile.IdentifyConfig{}) {
		names = append(names, o.Name)
	}
	return names, nil
}

// PerformanceObjects is Performance for an explicit object set (e.g. the
// result of AutoHotObjects).
func (w *Workload) PerformanceObjects(scheme Scheme, objects []string) (PerfReport, error) {
	return w.performance(scheme, func() (*core.Plan, error) {
		_, plan, err := w.lib.suite.PlanForObjects(w.name, scheme.internal(), objects)
		return plan, err
	})
}

// PerfReport is one timing-simulator measurement.
type PerfReport struct {
	// Cycles is the application's execution time in core cycles.
	Cycles int64
	// L1MissedAccesses counts L1 read misses (including replica traffic).
	L1MissedAccesses uint64
	// BaselineCycles and NormalizedTime relate the run to the unprotected
	// baseline.
	BaselineCycles int64
	NormalizedTime float64
	// ReplicaBytes is the DRAM consumed by replica copies.
	ReplicaBytes int
}

// Performance measures the scheme's overhead on the cycle-level timing
// simulator, normalized against the unprotected baseline.
func (w *Workload) Performance(scheme Scheme, level int) (PerfReport, error) {
	return w.performance(scheme, func() (*core.Plan, error) {
		_, plan, err := w.lib.suite.PlanFor(w.name, scheme.internal(), level)
		return plan, err
	})
}

// performance replays the workload's recorded traces unprotected and, for
// a protecting scheme, under the plan buildPlan returns (nil when there is
// nothing to protect).
func (w *Workload) performance(scheme Scheme, buildPlan func() (*core.Plan, error)) (PerfReport, error) {
	traces, err := w.lib.suite.Traces(w.name)
	if err != nil {
		return PerfReport{}, err
	}
	run := func(plan timing.ProtectionPlan) (timing.AppStats, error) {
		eng, err := timing.New(arch.Default(), plan)
		if err != nil {
			return timing.AppStats{}, err
		}
		return eng.RunApp(w.name, traces)
	}
	base, err := run(nil)
	if err != nil {
		return PerfReport{}, err
	}
	rep := PerfReport{
		Cycles:           base.TotalCycles(),
		L1MissedAccesses: base.TotalL1Misses(),
		BaselineCycles:   base.TotalCycles(),
		NormalizedTime:   1,
	}
	if scheme == Baseline {
		return rep, nil
	}
	plan, err := buildPlan()
	if err != nil {
		return PerfReport{}, err
	}
	if plan == nil {
		return rep, nil
	}
	st, err := run(plan)
	if err != nil {
		return PerfReport{}, err
	}
	rep.Cycles = st.TotalCycles()
	rep.L1MissedAccesses = st.TotalL1Misses()
	rep.NormalizedTime = float64(st.TotalCycles()) / float64(base.TotalCycles())
	rep.ReplicaBytes = plan.Cost().ReplicaBytes
	return rep, nil
}
