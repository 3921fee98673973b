package experiments

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/store"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
	"github.com/datacentric-gpu/dcrm/internal/timing"
)

// figureResult serves one whole-figure result through the content-addressed
// store: a repeat request for the same figure under the same inputs — in
// this process or, with a disk-backed store, any earlier one — skips the
// entire computation. The requests/computed counter pair is the observable
// proof of coalescing: under any number of concurrent identical requests,
// computed rises once per distinct key.
func figureResult[T any](s *Suite, figure string, kb *store.KeyBuilder, compute func() (T, error)) (T, error) {
	if reg := s.cfg.Telemetry; reg != nil {
		reg.CounterVec("dcrm_experiment_results_requests_total",
			"Figure/table result requests (hits + computations).", "figure").With(figure).Inc()
	}
	return store.Do(s.st, kb.Key(), store.Options[T]{Persist: true}, func() (T, error) {
		if reg := s.cfg.Telemetry; reg != nil {
			reg.CounterVec("dcrm_experiment_results_computed_total",
				"Figure/table results actually computed (store misses).", "figure").With(figure).Inc()
		}
		return compute()
	})
}

// Fig3AccessProfiles profiles every application (including the two
// counter-examples) and returns the Fig. 3 series, served through the
// result store. Applications are profiled concurrently on the suite's
// worker pool on a miss.
func Fig3AccessProfiles(s *Suite, points int) ([]Fig3Result, error) {
	if points <= 0 {
		points = 100
	}
	return figureResult(s, "fig3",
		s.key("fig3").Field("points", points),
		func() ([]Fig3Result, error) { return fig3AccessProfiles(s, points) })
}

// Fig4WarpSharing returns the Fig. 4 series, served through the result
// store (profiles already collected for Fig. 3 are reused from the store).
func Fig4WarpSharing(s *Suite, points int) ([]Fig4Result, error) {
	if points <= 0 {
		points = 100
	}
	return figureResult(s, "fig4",
		s.key("fig4").Field("points", points),
		func() ([]Fig4Result, error) { return fig4WarpSharing(s, points) })
}

// Table3DataObjects reproduces Table III for the evaluated applications,
// served through the result store.
func Table3DataObjects(s *Suite) ([]Table3Row, error) {
	return figureResult(s, "table3",
		s.key("table3"),
		func() ([]Table3Row, error) { return table3DataObjects(s) })
}

// Fig6HotVsRest runs the Fig. 6 experiment — inject faults into hot memory
// blocks versus the rest of the accessed blocks (no protection enabled) and
// count SDC outcomes — served through the result store. Every
// result-determining knob of the resolved config is folded into the key, so
// a changed run count, seed, fault model set, or application list computes
// fresh while an identical request is a hit.
func Fig6HotVsRest(s *Suite, cfg Fig6Config) ([]Fig6Cell, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Apps) == 0 {
		cfg.Apps = s.EvaluatedNames()
	}
	return figureResult(s, "fig6",
		s.key("fig6").
			Field("runs", cfg.Runs).
			Field("seed", cfg.Seed).
			Field("models", fault.ModelsKey(cfg.Models)).
			Field("apps", cfg.Apps),
		func() ([]Fig6Cell, error) { return fig6HotVsRest(s, cfg) })
}

// Fig7Overhead runs the Fig. 7 performance sweep, served through the
// result store.
func Fig7Overhead(s *Suite, cfg Fig7Config) ([]Fig7Point, error) {
	if len(cfg.Apps) == 0 {
		cfg.Apps = s.EvaluatedNames()
	}
	return figureResult(s, "fig7",
		s.key("fig7").Field("apps", cfg.Apps),
		func() ([]Fig7Point, error) { return fig7Overhead(s, cfg) })
}

// Fig9Resilience runs the Fig. 9 resilience evaluation, served through the
// result store.
func Fig9Resilience(s *Suite, cfg Fig9Config) ([]Fig9Cell, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Apps) == 0 {
		cfg.Apps = s.EvaluatedNames()
	}
	return figureResult(s, "fig9",
		s.key("fig9").
			Field("runs", cfg.Runs).
			Field("seed", cfg.Seed).
			Field("models", fault.ModelsKey(cfg.Models)).
			Field("apps", cfg.Apps),
		func() ([]Fig9Cell, error) { return fig9Resilience(s, cfg) })
}

// SimConfig selects one timing-simulator configuration for Simulate.
type SimConfig struct {
	// App names the application.
	App string
	// Scheme and Level select the protection plan (None/0 = baseline).
	Scheme core.Scheme
	Level  int
	// Policy selects the warp scheduler (default timing.GTO).
	Policy timing.SchedulerPolicy
}

// Simulate runs one (application, scheme, level, scheduler) configuration
// on the timing simulator, served through the result store: `repro sim`'s
// warm-start path. Runs that need a live engine attachment (a Chrome trace
// recorder) must use TraceApp instead — a store hit has no engine to
// record.
func Simulate(s *Suite, cfg SimConfig) (timing.AppStats, error) {
	if cfg.Policy == 0 {
		cfg.Policy = timing.GTO
	}
	return figureResult(s, "sim",
		s.key("sim").
			Field("app", cfg.App).
			Field("scheme", cfg.Scheme).
			Field("level", cfg.Level).
			Field("policy", cfg.Policy),
		func() (timing.AppStats, error) { return replay(s, cfg, nil) })
}

// TraceApp replays one timing configuration — the unit of the Fig. 7 sweep
// — with a Chrome trace recorder attached, returning the timeline (per-SM,
// per-L2-bank, and per-DRAM-channel lanes) and the run's stats. It always
// simulates. Write the trace with Trace.WriteJSON and open it in
// chrome://tracing or Perfetto.
func TraceApp(s *Suite, cfg SimConfig) (*telemetry.Trace, timing.AppStats, error) {
	tr := telemetry.NewTrace()
	st, err := replay(s, cfg, tr)
	if err != nil {
		return nil, timing.AppStats{}, err
	}
	return tr, st, nil
}

// replay runs one timing configuration on a private engine over the
// application's shared read-only traces: the body of every Fig. 7 task,
// Simulate and TraceApp. The plan comes from the memoized campaign
// checkpoint, so timing runs and Fig. 9 campaigns share one plan
// construction per configuration. The engine publishes its counters to the
// suite's registry (if observed), which does not affect the stats, and
// records into tr when it is non-nil.
func replay(s *Suite, cfg SimConfig, tr *telemetry.Trace) (timing.AppStats, error) {
	traces, err := s.Traces(cfg.App)
	if err != nil {
		return timing.AppStats{}, err
	}
	cp, err := s.Checkpoint(cfg.App, cfg.Scheme, cfg.Level)
	if err != nil {
		return timing.AppStats{}, err
	}
	eng, err := timing.New(arch.Default(), enginePlan(cp.Plan))
	if err != nil {
		return timing.AppStats{}, fmt.Errorf("experiments: replay %s %v L%d: %w", cfg.App, cfg.Scheme, cfg.Level, err)
	}
	if cfg.Policy != 0 {
		eng.Policy = cfg.Policy
	}
	eng.Metrics = s.cfg.Telemetry
	eng.Trace = tr
	st, err := eng.RunApp(cfg.App, traces)
	if err != nil {
		return timing.AppStats{}, fmt.Errorf("experiments: replay %s %v L%d: %w", cfg.App, cfg.Scheme, cfg.Level, err)
	}
	return st, nil
}

// enginePlan converts a plan for the timing engine. A configuration that
// protects nothing has a nil *core.Plan, which must reach the engine as a
// nil interface: wrapped, the engine would call through the nil pointer.
func enginePlan(p *core.Plan) timing.ProtectionPlan {
	if p == nil {
		return nil
	}
	return p
}
