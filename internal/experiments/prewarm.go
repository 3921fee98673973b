// Parallel checkpoint prewarm: build an experiment's upcoming artifact set
// up front, fanned over the suite's bounded worker pool, instead of letting
// the first campaign of each configuration serialize golden + capture +
// timeline back-to-back on one goroutine while the pool idles. The unit of
// fan-out is one (checkpoint, artifact kind) pair — artifact granularity —
// and the store's singleflight front coalesces concurrent builders of the
// same artifact, within this process and (through the disk tier) across
// processes. Prewarming is purely a scheduling change: every artifact is
// built by the same code the lazy path runs, so campaign results are
// bit-identical with or without it.
package experiments

import (
	"context"
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/fleet"
)

// CheckpointSpec names one campaign configuration and the artifact kinds
// its upcoming campaigns will need. The spec helpers (Fig6PrewarmSpecs,
// Fig9PrewarmSpecs, BreakdownPrewarmSpecs, ShardPrewarmSpec) derive these
// from experiment configs; hand-built specs work too.
type CheckpointSpec struct {
	// App is the application name (kernels.ByName).
	App string
	// Scheme and Level select the protection configuration (None/0 = the
	// unprotected baseline).
	Scheme core.Scheme
	Level  int
	// Artifacts lists the artifact kinds to build (see ArtifactKinds).
	// Empty means just the golden — the artifact every campaign needs.
	Artifacts []string
}

// artifactsFor derives the artifact kinds a campaign sweep needs: the
// golden and the group replay's reference capture always; the timeline
// when any swept model consults it; the miss-weights when the selector is
// the Fig. 9 whole-space one.
func artifactsFor(models []fault.Model, miss bool) []string {
	kinds := []string{ArtifactGolden, ArtifactCapture}
	for _, m := range models {
		if fault.NeedsTimeline(m) {
			kinds = append(kinds, ArtifactTimeline)
			break
		}
	}
	if miss {
		kinds = append(kinds, ArtifactMissWeights)
	}
	return kinds
}

// Prewarm builds every artifact the specs name, in parallel over the
// suite's worker pool. Plan-invariant work (per-app input images) runs as a
// first phase so configuration tasks start from a warm image; the artifact
// units then fan out with the store's singleflight deduplicating concurrent
// builders of the same artifact. With a disk-backed store the artifacts
// persist, so a second process prewarms by fetching. Duplicate (app,
// scheme, level) specs are merged, their artifact sets unioned. Prewarm
// stops at the first build error (or when ctx is done) — the same error the
// lazy path would have surfaced mid-campaign.
func (s *Suite) Prewarm(ctx context.Context, specs []CheckpointSpec) error {
	if len(specs) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// Merge duplicate configurations, preserving first-seen order.
	type cfgKey struct {
		app    string
		scheme core.Scheme
		level  int
	}
	type unit struct {
		spec CheckpointSpec
		kind string
	}
	var apps []string
	appSeen := map[string]bool{}
	merged := map[cfgKey]map[string]bool{}
	var order []cfgKey
	for _, sp := range specs {
		if !appSeen[sp.App] {
			appSeen[sp.App] = true
			apps = append(apps, sp.App)
		}
		scheme := sp.Scheme
		if scheme == 0 {
			// The Scheme zero value is not core.None (schemes start at
			// iota+1); fold it to the unprotected baseline so a zero-valued
			// spec warms the checkpoint the experiments actually use.
			scheme = core.None
		}
		k := cfgKey{sp.App, scheme, sp.Level}
		kinds, ok := merged[k]
		if !ok {
			kinds = map[string]bool{}
			merged[k] = kinds
			order = append(order, k)
		}
		if len(sp.Artifacts) == 0 {
			kinds[ArtifactGolden] = true
		}
		for _, a := range sp.Artifacts {
			kinds[a] = true
		}
	}
	var units []unit
	for _, k := range order {
		for _, kind := range ArtifactKinds() { // canonical order, deterministic fan-out
			if merged[k][kind] {
				units = append(units, unit{
					spec: CheckpointSpec{App: k.app, Scheme: k.scheme, Level: k.level},
					kind: kind,
				})
			}
		}
	}

	// Phase 1: plan-invariant work — each distinct application's input
	// image, shared by all of its configurations via the suite memo.
	err := s.runTasks("prewarm: images", len(apps), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		_, err := s.App(apps[i])
		return err
	})
	if err != nil {
		return err
	}

	// Phase 2: fan the artifact units over the pool. Units of one
	// checkpoint build concurrently (the lazy path would serialize them);
	// units hitting a disk-persisted artifact just decode it.
	return s.runTasks("prewarm: artifacts", len(units), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		u := units[i]
		cp, err := s.Checkpoint(u.spec.App, u.spec.Scheme, u.spec.Level)
		if err != nil {
			return err
		}
		if err := cp.BuildArtifact(u.kind); err != nil {
			return fmt.Errorf("experiments: prewarm %s %v L%d %s: %w",
				u.spec.App, u.spec.Scheme, u.spec.Level, u.kind, err)
		}
		return nil
	})
}

// Fig6PrewarmSpecs derives the checkpoint set Fig6HotVsRest(cfg) will use:
// each app's unprotected baseline, with the capture, and the timeline when
// the model sweep needs it. Defaults are resolved like the experiment
// resolves them.
func (s *Suite) Fig6PrewarmSpecs(cfg Fig6Config) []CheckpointSpec {
	cfg = cfg.withDefaults()
	apps := cfg.Apps
	if len(apps) == 0 {
		apps = s.EvaluatedNames()
	}
	kinds := artifactsFor(cfg.Models, false)
	specs := make([]CheckpointSpec, 0, len(apps))
	for _, app := range apps {
		specs = append(specs, CheckpointSpec{App: app, Artifacts: kinds})
	}
	return specs
}

// Fig9PrewarmSpecs derives the checkpoint set Fig9Resilience(cfg) will use:
// each app's baseline plus every (scheme, level) combination of its
// protection sweep, all with miss-weights (the Fig. 9 selector). Needs the
// application images to enumerate levels, hence the error.
func (s *Suite) Fig9PrewarmSpecs(cfg Fig9Config) ([]CheckpointSpec, error) {
	cfg = cfg.withDefaults()
	apps := cfg.Apps
	if len(apps) == 0 {
		apps = s.EvaluatedNames()
	}
	kinds := artifactsFor(cfg.Models, true)
	var specs []CheckpointSpec
	for _, name := range apps {
		baseApp, err := s.App(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, CheckpointSpec{App: name, Artifacts: kinds})
		for _, scheme := range cfg.Schemes {
			for _, level := range sortedLevels(baseApp)[1:] {
				specs = append(specs, CheckpointSpec{App: name, Scheme: scheme, Level: level, Artifacts: kinds})
			}
		}
	}
	return specs, nil
}

// BreakdownPrewarmSpecs derives the checkpoint set FaultModelBreakdown(cfg)
// will use: each app's baseline plus its hot level under every scheme.
func (s *Suite) BreakdownPrewarmSpecs(cfg BreakdownConfig) ([]CheckpointSpec, error) {
	cfg = cfg.withDefaults()
	apps := cfg.Apps
	if len(apps) == 0 {
		apps = s.AllNames()
	}
	kinds := artifactsFor(cfg.Models, false)
	var specs []CheckpointSpec
	for _, name := range apps {
		baseApp, err := s.App(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, CheckpointSpec{App: name, Artifacts: kinds})
		for _, scheme := range cfg.Schemes {
			specs = append(specs, CheckpointSpec{App: name, Scheme: scheme, Level: baseApp.HotCount, Artifacts: kinds})
		}
	}
	return specs, nil
}

// ShardPrewarmSpec derives the single checkpoint spec a fleet campaign
// shard needs, so a worker can warm its claimed shard's artifacts (golden,
// capture, timeline, miss-weights as applicable) while heartbeating.
func (s *Suite) ShardPrewarmSpec(spec fleet.CampaignSpec) (CheckpointSpec, error) {
	scheme, err := core.ParseScheme(spec.Scheme)
	if err != nil {
		return CheckpointSpec{}, err
	}
	model, err := fault.ParseModel(spec.Model)
	if err != nil {
		return CheckpointSpec{}, err
	}
	return CheckpointSpec{
		App:       spec.App,
		Scheme:    scheme,
		Level:     spec.Level,
		Artifacts: artifactsFor([]fault.Model{model}, spec.Space == "miss"),
	}, nil
}
