package experiments

import (
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/store"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// Cold-start benchmark shape: one op is bringing a multi-checkpoint
// campaign session to fully-warm artifacts — two applications, baseline
// plus a protected configuration each, both artifact kinds (8 units),
// built one after another on one goroutine. "cold" builds them into an
// empty store; "secondprocess" warm-starts a fresh process from the disk
// tier the same build filled (and fails the run if anything recomputes).
// Suite construction and input images are built outside the timer: the
// measured region is exactly the artifact work. BENCH_coldstart.json
// records the committed baseline; scripts/bench.sh regenerates it and CI
// compares warn-only via scripts/bench_compare.sh.

// benchColdConfigs names the benchmark's checkpoint configurations and
// forces the plan-invariant inputs (application images) so the timed
// region starts from the same warm images on every variant.
func benchColdConfigs(b *testing.B, s *Suite) []checkpointConfig {
	b.Helper()
	var cfgs []checkpointConfig
	for _, name := range []string{"P-BICG", "A-Laplacian"} {
		app, err := s.App(name)
		if err != nil {
			b.Fatal(err)
		}
		cfgs = append(cfgs,
			checkpointConfig{name, core.None, 0},
			checkpointConfig{name, core.Detection, app.HotCount})
	}
	return cfgs
}

// buildColdArtifacts builds every artifact kind of each configuration,
// checkpoint by checkpoint, the way a first campaign meets them.
func buildColdArtifacts(b *testing.B, s *Suite, cfgs []checkpointConfig) {
	b.Helper()
	for _, c := range cfgs {
		cp, err := s.Checkpoint(c.app, c.scheme, c.level)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range artifactKinds {
			if err := cp.BuildArtifact(kind); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchColdSuite builds a fresh suite over st, outside the caller's timer.
func benchColdSuite(b *testing.B, st *store.Store, reg *telemetry.Registry) *Suite {
	b.Helper()
	s, err := NewSuite(SuiteConfig{NNTrainSamples: 60, Store: st, Telemetry: reg})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkColdStart(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := store.Open(store.Config{Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			s := benchColdSuite(b, st, nil)
			cfgs := benchColdConfigs(b, s)
			b.StartTimer()
			buildColdArtifacts(b, s, cfgs)
		}
	})

	b.Run("secondprocess", func(b *testing.B) {
		dir := b.TempDir()
		seedStore, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		seed := benchColdSuite(b, seedStore, nil)
		buildColdArtifacts(b, seed, benchColdConfigs(b, seed))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			reg := telemetry.NewRegistry()
			st, err := store.Open(store.Config{Dir: dir, Telemetry: reg})
			if err != nil {
				b.Fatal(err)
			}
			s := benchColdSuite(b, st, reg)
			cfgs := benchColdConfigs(b, s)
			b.StartTimer()
			buildColdArtifacts(b, s, cfgs)
			b.StopTimer()
			snap := reg.Snapshot()
			for _, kind := range artifactKinds {
				if c, ok := snap.Get("dcrm_artifact_computed_total", telemetry.Label{Name: "kind", Value: kind}); ok && c.Value != 0 {
					b.Fatalf("second process recomputed the %s artifact %v times", kind, c.Value)
				}
			}
			b.StartTimer()
		}
	})
}
