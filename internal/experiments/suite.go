// Package experiments orchestrates the paper's evaluation: one entry point
// per table and figure, returning structured rows that cmd/repro renders.
// Each experiment composes the substrate packages the way the paper's
// methodology describes — a profiling run for the access-pattern analysis,
// functional fault-injection campaigns for the reliability results, and
// timing-simulator sweeps for the performance results.
//
// Every experiment fans its independent work units (per application, and
// per scheme × protection level for the timing and resilience sweeps) over
// a bounded worker pool sized by SuiteConfig.Workers. Task results are
// assembled by index, and every per-run random stream is derived from the
// configured seed rather than from scheduling order, so the output of a
// parallel run is bit-identical to a serial one at any worker count. The
// Suite itself is safe for concurrent use: its applications, profiles,
// golden outputs, traces, campaign checkpoints, and whole-figure results
// live in a content-addressed result store (internal/store) whose
// singleflight front guarantees concurrent experiments share one build per
// key instead of racing or repeating it. Pointing SuiteConfig.Store at a
// disk-backed store makes profiles, goldens, and figure results survive
// the process, so repeat invocations warm-start and skip unchanged work
// entirely.
package experiments

import (
	"context"
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/kernels"
	"github.com/datacentric-gpu/dcrm/internal/mem"
	"github.com/datacentric-gpu/dcrm/internal/nn"
	"github.com/datacentric-gpu/dcrm/internal/profile"
	"github.com/datacentric-gpu/dcrm/internal/simt"
	"github.com/datacentric-gpu/dcrm/internal/store"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
	"github.com/datacentric-gpu/dcrm/internal/version"
)

// Scale selects the workload input sizes.
type Scale int

// Workload scales. Access-pattern *shapes* are scale-invariant; larger
// scales sharpen the Fig. 3 knees and bring the Table III percentages
// closer to the paper's full-size numbers, at proportionally higher
// experiment cost.
const (
	// ScaleSmall is the default: the full evaluation runs in minutes on one
	// core.
	ScaleSmall Scale = iota + 1
	// ScaleMedium roughly quadruples the footprints.
	ScaleMedium
	// ScaleLarge approaches the paper's input sizes for the cheaper
	// applications (hours of runtime for full campaigns).
	ScaleLarge
)

// String renders the scale.
func (s Scale) String() string {
	switch s {
	case ScaleMedium:
		return "medium"
	case ScaleLarge:
		return "large"
	default:
		return "small"
	}
}

// ParseScale is String's inverse for the three scales: "small", "medium"
// or "large". Anything else is an error naming them.
func ParseScale(name string) (Scale, error) {
	for _, sc := range []Scale{ScaleSmall, ScaleMedium, ScaleLarge} {
		if sc.String() == name {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (want small, medium or large)", name)
}

// SuiteConfig configures the application suite shared by the experiments.
type SuiteConfig struct {
	// NNTrainSamples shrinks the C-NN weight construction for fast tests
	// (0 = the nn package default).
	NNTrainSamples int
	// Seed drives every deterministic component.
	Seed int64
	// Scale selects workload input sizes (default ScaleSmall).
	Scale Scale
	// Workers bounds the suite-level experiment fan-out (independent
	// applications, and scheme × level configurations within the Fig. 7 and
	// Fig. 9 sweeps). 0 means GOMAXPROCS. Results are identical at any
	// worker count; only wall-clock time changes.
	Workers int
	// Progress, when non-nil, receives a serialized stream of task
	// completion events from every experiment fan-out (cmd/repro wires this
	// to a stderr ETA reporter).
	Progress ProgressFunc
	// Telemetry, when non-nil, receives live counters from every experiment
	// fan-out and fault campaign (task counts per phase, task-duration
	// histograms, campaign outcome counts), so a long suite run can be
	// watched over cmd/dcrmd's /metrics endpoint. Observation only: results
	// are bit-identical with or without a registry attached.
	Telemetry *telemetry.Registry
	// Context, when non-nil, cancels in-flight experiment work: task
	// fan-outs stop claiming new units and campaigns stop claiming new
	// runs once it is done, and the aborted call returns the context's
	// error. Control only — it is excluded from store keys and never
	// changes a completed result. Nil means work always runs to
	// completion (the pre-daemon behaviour).
	Context context.Context
	// Store, when non-nil, is the content-addressed result store backing
	// every suite artifact and figure result. A disk-backed store
	// (store.Config.Dir / the CLIs' -store-dir flag) makes results survive
	// across invocations. Nil opens a private in-memory store, which
	// reproduces the old per-suite memo behaviour exactly. Every store key
	// folds in the full suite identity (build version, GPU configuration,
	// seed, scale), so a shared store can never serve a result computed
	// under different inputs — and because every computation is
	// deterministic in those inputs, a store hit is byte-identical to
	// recomputing.
	Store *store.Store
}

func (c SuiteConfig) withDefaults() SuiteConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale == 0 {
		c.Scale = ScaleSmall
	}
	return c
}

// scaleSizes returns the per-app size knobs for a scale.
type scaleSpec struct {
	poly    int // Polybench matrix dimension
	stencil int // image side
	images  int // C-NN batch
	gram    int // Gram-Schmidt dimension
	options int // BlackScholes contracts
	sradIt  int // SRAD iterations
}

func (s Scale) spec() scaleSpec {
	switch s {
	case ScaleMedium:
		return scaleSpec{poly: 512, stencil: 192, images: 24, gram: 96, options: 16384, sradIt: 8}
	case ScaleLarge:
		return scaleSpec{poly: 1024, stencil: 384, images: 64, gram: 192, options: 65536, sradIt: 12}
	default:
		return scaleSpec{} // zero values select each app's small defaults
	}
}

// Suite builds and caches the paper's applications, their profiles, their
// baseline traces, and their campaign checkpoints with the checkpoints'
// artifacts (one golden run per application, recorded as it runs),
// all through the content-addressed result store. Building C-NN's network
// is expensive, so one network is shared across every C-NN instance the
// experiments create. All methods are safe for concurrent use; the cached
// artifacts are built once per key and must be treated as read-only by
// callers.
type Suite struct {
	cfg SuiteConfig
	net *nn.Network
	st  *store.Store
	// ctx cancels in-flight work (never nil; Background when the config
	// leaves it unset).
	ctx context.Context
	// base is the canonical suite identity folded into every store key:
	// everything a cached result depends on. Workers, Progress, and
	// Telemetry are deliberately excluded — they are performance or
	// observation controls and never change results.
	base string
}

// NewSuite constructs the suite (training the shared C-NN network once).
func NewSuite(cfg SuiteConfig) (*Suite, error) {
	cfg = cfg.withDefaults()
	net, err := nn.Train(nn.TrainConfig{TrainSamples: cfg.NNTrainSamples, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	st := cfg.Store
	if st == nil {
		st, err = store.Open(store.Config{Telemetry: cfg.Telemetry})
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}
	base := fmt.Sprintf("%s|gpu=%+v|seed=%d|scale=%s|nn=%d",
		version.String(), arch.Default(), cfg.Seed, cfg.Scale, cfg.NNTrainSamples)
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return &Suite{cfg: cfg, net: net, st: st, ctx: ctx, base: base}, nil
}

// key starts a store key in the given namespace with the suite identity
// already folded in.
func (s *Suite) key(ns string) *store.KeyBuilder {
	return store.NewKey(ns).Field("suite", s.base)
}

// Store exposes the suite's result store (for status inspection; never nil
// after NewSuite).
func (s *Suite) Store() *store.Store { return s.st }

// SimShards returns 1: every timing replay runs on one event scheduler.
//
// Deprecated: kept only so existing callers compile; it will be removed.
func (s *Suite) SimShards() int { return 1 }

// AllNames returns every application label, evaluated apps first.
func (s *Suite) AllNames() []string {
	out := make([]string, 0, 10)
	for _, b := range kernels.All() {
		out = append(out, b.Name)
	}
	return out
}

// EvaluatedNames returns the eight Table II applications.
func (s *Suite) EvaluatedNames() []string {
	out := make([]string, 0, 8)
	for _, b := range kernels.Evaluated() {
		out = append(out, b.Name)
	}
	return out
}

// Fresh builds a new instance of the named application at the configured
// scale. Every instance has an identical deterministic memory layout, so
// traces and goldens transfer between instances; protection plans, which
// extend the memory image with replicas, get a private instance each.
func (s *Suite) Fresh(name string) (*kernels.App, error) {
	sp := s.cfg.Scale.spec()
	switch name {
	case "C-NN":
		return kernels.NewCNN(kernels.CNNConfig{Seed: s.cfg.Seed, Net: s.net, Images: sp.images})
	case "P-BICG":
		return kernels.NewBICG(kernels.BICGConfig{NX: sp.poly, NY: sp.poly})
	case "P-GESUMMV":
		return kernels.NewGESUMMV(kernels.GESUMMVConfig{N: sp.poly})
	case "P-MVT":
		return kernels.NewMVT(kernels.MVTConfig{N: sp.poly})
	case "P-GRAMSCHM":
		return kernels.NewGramSchmidt(kernels.GramSchmidtConfig{N: sp.gram})
	case "C-BlackScholes":
		return kernels.NewBlackScholes(kernels.BlackScholesConfig{Options: sp.options})
	case "A-Laplacian":
		return kernels.NewLaplacian(kernels.StencilConfig{Width: sp.stencil, Height: sp.stencil})
	case "A-Meanfilter":
		return kernels.NewMeanfilter(kernels.StencilConfig{Width: sp.stencil, Height: sp.stencil})
	case "A-Sobel":
		return kernels.NewSobel(kernels.StencilConfig{Width: sp.stencil, Height: sp.stencil})
	case "A-SRAD":
		return kernels.NewSRAD(kernels.SRADConfig{Width: sp.stencil, Height: sp.stencil, Iterations: sp.sradIt})
	}
	b, err := kernels.ByName(name)
	if err != nil {
		return nil, err
	}
	return b.Build()
}

// App returns the cached base instance of the named application. Live
// objects (memory image, closures) never persist to disk — the store's
// memory tier alone backs them.
func (s *Suite) App(name string) (*kernels.App, error) {
	return store.Do(s.st, s.key("app").Field("name", name).Key(),
		store.Options[*kernels.App]{Size: func(a *kernels.App) int64 {
			return int64(a.Mem.Size())
		}},
		func() (*kernels.App, error) {
			return s.Fresh(name)
		})
}

// Profile returns the cached access profile of the named application,
// folded from its memoized traces (Traces), so profiling and the timing
// sweeps share one recording. Concurrent callers (Fig. 3/4/6 and Table III
// racing over the same app) share a single fold, and with a disk-backed
// store the profile survives the process.
func (s *Suite) Profile(name string) (*profile.Profile, error) {
	return store.Do(s.st, s.key("profile").Field("name", name).Key(),
		store.Options[*profile.Profile]{Persist: true},
		func() (*profile.Profile, error) {
			a, err := s.App(name)
			if err != nil {
				return nil, err
			}
			traces, err := s.Traces(name)
			if err != nil {
				return nil, err
			}
			return profile.Collect(a, traces), nil
		})
}

// Traces returns the cached unprotected per-kernel traces of the named
// application's base instance. The timing engine treats traces as
// read-only, so one capture feeds any number of concurrent replays. Traces
// are memory-only: they are cheap to recapture relative to their bulk.
func (s *Suite) Traces(name string) ([]*simt.KernelTrace, error) {
	return store.Do(s.st, s.key("traces").Field("name", name).Key(),
		store.Options[[]*simt.KernelTrace]{Size: traceFootprint},
		func() ([]*simt.KernelTrace, error) {
			a, err := s.App(name)
			if err != nil {
				return nil, err
			}
			return a.TraceRun()
		})
}

// traceFootprint estimates a trace capture's resident bytes for the
// store's LRU accounting.
func traceFootprint(traces []*simt.KernelTrace) int64 {
	const instrBytes = 24 // Instr value plus slice overhead, roughly
	var n int64
	for _, kt := range traces {
		for _, w := range kt.Warps {
			n += int64(len(w)) * instrBytes
		}
	}
	return n
}

// levelObjects resolves a cumulative protection level to the names of the
// objects it protects: the read-only ones among the application's first
// `level` in Table III priority order. Writable objects (P-GRAMSCHM's A,
// A-SRAD's Image) cannot be replicated, so adding one protects nothing new.
func levelObjects(app *kernels.App, level int) []string {
	var names []string
	for _, o := range app.Objects[:max(0, min(level, len(app.Objects)))] {
		if o.ReadOnly {
			names = append(names, o.Name)
		}
	}
	return names
}

// PlanFor builds a protection plan on a fresh instance of the application,
// protecting the objects of the given cumulative level (levelObjects). A
// configuration that protects nothing returns the unprotected instance
// with a nil plan.
func (s *Suite) PlanFor(name string, scheme core.Scheme, level int) (*kernels.App, *core.Plan, error) {
	app, err := s.App(name)
	if err != nil {
		return nil, nil, err
	}
	return s.buildPlan(name, scheme, levelObjects(app, level))
}

// buildPlan builds a protection plan on a fresh instance covering the
// named data objects, in the given priority order. Scheme None or an empty
// list is the unprotected baseline: the instance with a nil plan. Unknown
// names are an error; writable objects are rejected by the plan itself.
func (s *Suite) buildPlan(name string, scheme core.Scheme, objectNames []string) (*kernels.App, *core.Plan, error) {
	app, err := s.Fresh(name)
	if err != nil {
		return nil, nil, err
	}
	if len(objectNames) == 0 || scheme == core.None {
		return app, nil, nil
	}
	objs := make([]*mem.Buffer, 0, len(objectNames))
	for _, n := range objectNames {
		b, ok := app.Mem.BufferByName(n)
		if !ok {
			return nil, nil, fmt.Errorf("experiments: %s has no data object %q", name, n)
		}
		objs = append(objs, b)
	}
	plan, err := core.NewPlan(app.Mem, core.PlanConfig{
		Scheme:  scheme,
		Objects: objs,
		Sites:   app.Sites,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %s %v objects %v: %w", name, scheme, objectNames, err)
	}
	return app, plan, nil
}

// protectedLevels returns the cumulative protection levels a sweep covers
// for an app: 1 through its object count, capped so correction stays
// within its address-table budget.
func protectedLevels(app *kernels.App) []int {
	n := min(len(app.Objects), core.MaxObjectsCorrection)
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// checkpointConfig names one (application, scheme, level) campaign
// configuration.
type checkpointConfig struct {
	app    string
	scheme core.Scheme
	level  int
}

// configs lists a sweep's configurations in its serial order: each
// application's unprotected baseline, then every scheme at each of the
// application's levels.
func (s *Suite) configs(apps []string, schemes []core.Scheme, levels func(*kernels.App) []int) ([]checkpointConfig, error) {
	var cfgs []checkpointConfig
	for _, name := range apps {
		app, err := s.App(name)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, checkpointConfig{name, core.None, 0})
		for _, scheme := range schemes {
			for _, level := range levels(app) {
				cfgs = append(cfgs, checkpointConfig{name, scheme, level})
			}
		}
	}
	return cfgs, nil
}
