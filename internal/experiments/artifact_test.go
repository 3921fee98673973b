package experiments

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/store"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// artifactCampaign runs a small campaign that touches all four artifact
// kinds: the golden (classification), the reference capture (group
// replay), the timeline (transient faults), and the miss weights (the
// selector).
func artifactCampaign(t *testing.T, s *Suite) fault.Result {
	t.Helper()
	cp, err := s.Checkpoint("P-BICG", core.None, 0)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := cp.MissSelector()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cp.Campaign(fault.Campaign{Runs: 40, Seed: 9, Workers: 2},
		fault.Transient{Flips: 2, Blocks: 1}, sel)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// buildAllArtifacts forces every artifact kind on the app's baseline
// checkpoint and returns it.
func buildAllArtifacts(t *testing.T, s *Suite) *Checkpoint {
	t.Helper()
	cp, err := s.Checkpoint("P-BICG", core.None, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range ArtifactKinds() {
		if err := cp.BuildArtifact(kind); err != nil {
			t.Fatalf("build %s: %v", kind, err)
		}
	}
	return cp
}

// TestArtifactParity is the artifact-cache byte-identity gate: every
// artifact decoded from the disk tier by a second process must equal a
// fresh computation of the same artifact — gob-byte-identical for the
// slice-shaped kinds, structurally identical for the timeline (gob does
// not order map keys) — and a campaign run entirely from decoded
// artifacts must reproduce the cold campaign bit for bit. It runs under
// -race in CI.
func TestArtifactParity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns in -short mode")
	}
	dir := t.TempDir()
	st1, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1 := paritySuite(t, st1, nil)
	cp1 := buildAllArtifacts(t, s1)
	baseline := artifactCampaign(t, s1)

	// Fresh computations, bypassing the store entirely.
	freshGolden, err := computeGoldenArtifact(cp1)
	if err != nil {
		t.Fatal(err)
	}
	freshCapture := computeCaptureArtifact(cp1)
	freshTimeline, err := captureTimeline(cp1)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := cp1.App.TraceRun(nil)
	if err != nil {
		t.Fatal(err)
	}
	blocks, weights, err := missWeights(cp1.App.Name, cp1.Plan, traces)
	if err != nil {
		t.Fatal(err)
	}
	freshMiss := missArtifact{Blocks: blocks, Weights: weights}

	// A second process over the same directory: artifactDo must serve every
	// kind from disk; a compute call here is a parity failure in itself.
	st2, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s2 := paritySuite(t, st2, nil)
	cp2, err := s2.Checkpoint("P-BICG", core.None, 0)
	if err != nil {
		t.Fatal(err)
	}
	recomputed := func(kind string) error {
		return fmt.Errorf("%s artifact recomputed on a warm store", kind)
	}
	decodedGolden, err := artifactDo(cp2, ArtifactGolden, func() (goldenArtifact, error) {
		return goldenArtifact{}, recomputed(ArtifactGolden)
	})
	if err != nil {
		t.Fatal(err)
	}
	decodedCapture, err := artifactDo(cp2, ArtifactCapture, func() (captureArtifact, error) {
		return captureArtifact{}, recomputed(ArtifactCapture)
	})
	if err != nil {
		t.Fatal(err)
	}
	decodedTimeline, err := artifactDo(cp2, ArtifactTimeline, func() (*fault.Timeline, error) {
		return nil, recomputed(ArtifactTimeline)
	})
	if err != nil {
		t.Fatal(err)
	}
	decodedMiss, err := artifactDo(cp2, ArtifactMissWeights, func() (missArtifact, error) {
		return missArtifact{}, recomputed(ArtifactMissWeights)
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range []struct {
		kind           string
		fresh, decoded any
	}{
		{ArtifactGolden, freshGolden, decodedGolden},
		{ArtifactCapture, freshCapture, decodedCapture},
		{ArtifactMissWeights, freshMiss, decodedMiss},
	} {
		if !bytes.Equal(gobBytes(t, p.fresh), gobBytes(t, p.decoded)) {
			t.Errorf("%s artifact decoded from disk is not byte-identical to a fresh computation", p.kind)
		}
	}
	if !reflect.DeepEqual(freshTimeline, decodedTimeline) {
		t.Errorf("timeline artifact decoded from disk differs from a fresh capture")
	}

	// The warm process's campaign — classified against the reconstructed
	// golden, replayed against the decoded capture, faults drawn from the
	// decoded weights and timeline — must match the cold result exactly.
	if warm := artifactCampaign(t, s2); warm != baseline {
		t.Errorf("warm-artifact campaign = %+v, want cold result %+v", warm, baseline)
	}
}

// TestArtifactCorruptionRecovery damages each artifact kind's disk file
// both ways a torn write can (payload bit-flip, truncation) and checks
// that a fresh process recovers transparently: exactly that artifact is
// recomputed, every other kind still serves from disk, and the campaign
// result is byte-identical to the undamaged baseline.
func TestArtifactCorruptionRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns in -short mode")
	}
	dir := t.TempDir()
	st1, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1 := paritySuite(t, st1, nil)
	cp1 := buildAllArtifacts(t, s1)
	baseline := artifactCampaign(t, s1)

	mangles := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"bitflip", func(raw []byte) []byte { raw[len(raw)-1] ^= 0xff; return raw }},
		{"truncate", func(raw []byte) []byte { return raw[:len(raw)/2] }},
	}
	for _, kind := range ArtifactKinds() {
		for _, m := range mangles {
			t.Run(kind+"/"+m.name, func(t *testing.T) {
				hash := cp1.artifactKey(kind).Hash()
				path := filepath.Join(dir, hash[:2], hash+".bin")
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, m.mangle(append([]byte(nil), raw...)), 0o644); err != nil {
					t.Fatal(err)
				}

				reg := telemetry.NewRegistry()
				st, err := store.Open(store.Config{Dir: dir, Telemetry: reg})
				if err != nil {
					t.Fatal(err)
				}
				s := paritySuite(t, st, reg)
				// Force every kind like a restarted worker's prewarm would:
				// the corrupt entry is detected, recomputed, and rewritten;
				// the intact kinds decode from disk.
				buildAllArtifacts(t, s)
				if res := artifactCampaign(t, s); res != baseline {
					t.Errorf("campaign after %s corruption = %+v, want %+v", kind, res, baseline)
				}
				snap := reg.Snapshot()
				if c, ok := snap.Get("dcrm_artifact_computed_total", telemetry.Label{Name: "kind", Value: kind}); !ok || c.Value != 1 {
					t.Errorf("corrupt %s artifact: computed counter = %v, want exactly 1", kind, c)
				}
				for _, other := range ArtifactKinds() {
					if other == kind {
						continue
					}
					if c, ok := snap.Get("dcrm_artifact_computed_total", telemetry.Label{Name: "kind", Value: other}); ok && c.Value != 0 {
						t.Errorf("intact %s artifact recomputed %v times after %s corruption", other, c.Value, kind)
					}
				}
				// The recompute's write-back healed the file: it decodes
				// cleanly for the next subtest's corruption pass.
				if _, err := os.Stat(path); err != nil {
					t.Errorf("corrupt %s artifact not rewritten: %v", kind, err)
				}
			})
		}
	}
}

// TestSecondProcessServesArtifacts is the warm-start telemetry gate: after
// one process prewarms into a disk store, a second process prewarming the
// same specs and running a campaign must request every artifact kind and
// compute none of them.
func TestSecondProcessServesArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns in -short mode")
	}
	dir := t.TempDir()
	specs := []CheckpointSpec{{App: "P-BICG", Artifacts: ArtifactKinds()}}

	st1, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1 := paritySuite(t, st1, nil)
	if err := s1.Prewarm(context.Background(), specs); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	st2, err := store.Open(store.Config{Dir: dir, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	s2 := paritySuite(t, st2, reg)
	if err := s2.Prewarm(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	artifactCampaign(t, s2)

	snap := reg.Snapshot()
	for _, kind := range ArtifactKinds() {
		if r, ok := snap.Get("dcrm_artifact_requests_total", telemetry.Label{Name: "kind", Value: kind}); !ok || r.Value == 0 {
			t.Errorf("warm process recorded no %s artifact requests", kind)
		}
		if c, ok := snap.Get("dcrm_artifact_computed_total", telemetry.Label{Name: "kind", Value: kind}); ok && c.Value != 0 {
			t.Errorf("warm process computed the %s artifact %v times, want 0", kind, c.Value)
		}
	}
	if hits, ok := snap.Get("dcrm_store_disk_hits_total"); !ok || hits.Value == 0 {
		t.Error("warm process served nothing from the disk tier")
	}
}

// TestPrewarmEquivalence checks that Prewarm is purely a scheduling change:
// figure outputs with a prewarmed suite match a lazily-built suite exactly.
func TestPrewarmEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign sweeps in -short mode")
	}
	apps := []string{"P-BICG"}
	fig6cfg := Fig6Config{Runs: 6, Seed: 5, Apps: apps}
	fig9cfg := Fig9Config{Runs: 6, Seed: 5, Apps: apps}

	outputs := func(s *Suite) []byte {
		t.Helper()
		fig6, err := Fig6HotVsRest(s, fig6cfg)
		if err != nil {
			t.Fatal(err)
		}
		fig9, err := Fig9Resilience(s, fig9cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(struct {
			Fig6 []Fig6Cell
			Fig9 []Fig9Cell
		}{fig6, fig9})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	lazy := outputs(paritySuite(t, nil, nil))

	warmed := paritySuite(t, nil, nil)
	if err := warmed.Prewarm(context.Background(), warmed.Fig6PrewarmSpecs(fig6cfg)); err != nil {
		t.Fatal(err)
	}
	specs, err := warmed.Fig9PrewarmSpecs(fig9cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := warmed.Prewarm(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if got := outputs(warmed); !bytes.Equal(got, lazy) {
		t.Errorf("prewarmed figure output diverges from lazy output\nlazy:     %s\nprewarmed: %s", lazy, got)
	}
}
