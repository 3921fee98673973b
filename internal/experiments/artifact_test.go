package experiments

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/store"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// artifactCampaign runs two small campaigns that together use every
// artifact kind: the golden (classification, and the recording runs replay
// against) and the exposure replay (the miss selector, and the timeline
// transient faults read). The 2-flip transient campaign classifies every
// run without a replay. The 3-bit stuck-at faults escape SECDED, so that
// campaign's runs replay against the golden run's recording.
func artifactCampaign(t *testing.T, s *Suite) [2]fault.Result {
	t.Helper()
	cp, err := s.Checkpoint("P-BICG", core.None, 0)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := cp.MissSelector()
	if err != nil {
		t.Fatal(err)
	}
	var res [2]fault.Result
	for i, model := range []fault.Model{fault.Transient{Flips: 2, Blocks: 1}, fault.StuckAt{BitsPerWord: 3, Blocks: 1}} {
		if res[i], err = cp.Campaign(fault.Campaign{Runs: 40, Seed: 9, Workers: 2}, model, sel); err != nil {
			t.Fatal(err)
		}
	}
	return res
}

// checkCaptureReplayed fails t unless the campaigns reg observed replayed
// runs against a reference capture (applied golden stores).
func checkCaptureReplayed(t *testing.T, reg *telemetry.Registry) {
	t.Helper()
	if got := counterValue(reg.Snapshot(), "dcrm_campaign_applied_warps_total"); got == 0 {
		t.Error("no campaign run replayed against the reference capture (0 applied warps)")
	}
}

func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// artifactKinds lists every checkpoint artifact kind.
var artifactKinds = []string{ArtifactGolden, ArtifactMissWeights}

// buildAllArtifacts forces every artifact kind on the app's baseline
// checkpoint and returns it.
func buildAllArtifacts(t *testing.T, s *Suite) *Checkpoint {
	t.Helper()
	cp, err := s.Checkpoint("P-BICG", core.None, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range artifactKinds {
		if err := cp.BuildArtifact(kind); err != nil {
			t.Fatalf("build %s: %v", kind, err)
		}
	}
	return cp
}

// TestArtifactParity is the artifact-cache byte-identity gate: every
// artifact decoded from the disk tier by a second process must be
// gob-byte-identical to a fresh computation of the same artifact, and a
// campaign run entirely from decoded artifacts must reproduce the cold
// campaign bit for bit. It runs under -race in CI.
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
	traces, err := cp1.App.TraceRun()
	if err != nil {
		t.Fatal(err)
	}
	freshExposure, err := replayExposure(cp1.App, cp1.Plan, traces)
	if err != nil {
		t.Fatal(err)
	}

	// A second process over the same directory: artifactDo must serve every
	// kind from disk; a compute call here is a parity failure in itself.
	reg := telemetry.NewRegistry()
	st2, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s2 := paritySuite(t, st2, reg)
	cp2, err := s2.Checkpoint("P-BICG", core.None, 0)
	if err != nil {
		t.Fatal(err)
	}
	recomputed := func(kind string) error {
		return fmt.Errorf("%s artifact recomputed on a warm store", kind)
	}
	decodedGolden, err := artifactDo(cp2, ArtifactGolden, store.Options[goldenArtifact]{}, func() (goldenArtifact, error) {
		return goldenArtifact{}, recomputed(ArtifactGolden)
	})
	if err != nil {
		t.Fatal(err)
	}
	decodedExposure, err := artifactDo(cp2, ArtifactMissWeights, store.Options[exposureArtifact]{}, func() (exposureArtifact, error) {
		return exposureArtifact{}, recomputed(ArtifactMissWeights)
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range []struct {
		kind           string
		fresh, decoded any
	}{
		{ArtifactGolden, freshGolden, decodedGolden},
		{ArtifactMissWeights, freshExposure, decodedExposure},
	} {
		if !bytes.Equal(gobBytes(t, p.fresh), gobBytes(t, p.decoded)) {
			t.Errorf("%s artifact decoded from disk is not byte-identical to a fresh computation", p.kind)
		}
	}

	// The warm process's campaigns — classified against the reconstructed
	// golden, replayed against its decoded recording, faults drawn from the
	// decoded weights and timeline — must match the cold results exactly.
	if warm := artifactCampaign(t, s2); warm != baseline {
		t.Errorf("warm-artifact campaigns = %+v, want cold results %+v", warm, baseline)
	}
	checkCaptureReplayed(t, reg)
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
	for _, kind := range artifactKinds {
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
				// Force every kind: the corrupt entry is detected,
				// recomputed, and rewritten; the intact kinds decode from
				// disk.
				buildAllArtifacts(t, s)
				if res := artifactCampaign(t, s); res != baseline {
					t.Errorf("campaigns after %s corruption = %+v, want %+v", kind, res, baseline)
				}
				checkCaptureReplayed(t, reg)
				snap := reg.Snapshot()
				if c, ok := snap.Get("dcrm_artifact_computed_total", telemetry.Label{Name: "kind", Value: kind}); !ok || c.Value != 1 {
					t.Errorf("corrupt %s artifact: computed counter = %v, want exactly 1", kind, c)
				}
				for _, other := range artifactKinds {
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
// one process builds every artifact kind into a disk store, a second
// process building them and running a campaign must request every
// artifact kind and compute none of them.
func TestSecondProcessServesArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns in -short mode")
	}
	dir := t.TempDir()

	st1, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	buildAllArtifacts(t, paritySuite(t, st1, nil))

	reg := telemetry.NewRegistry()
	st2, err := store.Open(store.Config{Dir: dir, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	s2 := paritySuite(t, st2, reg)
	buildAllArtifacts(t, s2)
	artifactCampaign(t, s2)
	checkCaptureReplayed(t, reg)

	snap := reg.Snapshot()
	for _, kind := range artifactKinds {
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

// TestOneGoldenAndCapturePerApp is the sharing gate: a Fig. 6 + Fig. 9
// build runs each application's fault-free reference execution once,
// recording it as it goes, however many (scheme, level) configurations
// share it, while the miss weights — which the plan's replica traffic
// changes — are computed once per distinct checkpoint among Fig. 9's
// configurations (A-SRAD's level 5 adds only its writable Image, so it
// shares level 4's). No artifact of the capture kind exists: the golden
// carries the recording.
func TestOneGoldenAndCapturePerApp(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps in -short mode")
	}
	reg := telemetry.NewRegistry()
	s := paritySuite(t, nil, reg)
	if _, err := Fig6HotVsRest(s, Fig6Config{Runs: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig9Resilience(s, Fig9Config{Runs: 2}); err != nil {
		t.Fatal(err)
	}
	cfgs, err := s.configs(s.EvaluatedNames(), protectingSchemes, protectedLevels)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[*Checkpoint]bool{}
	for _, c := range cfgs {
		cp, err := s.Checkpoint(c.app, c.scheme, c.level)
		if err != nil {
			t.Fatal(err)
		}
		distinct[cp] = true
	}
	if len(cfgs) != 68 || len(distinct) != 66 {
		t.Errorf("Fig. 9 has %d configurations over %d checkpoints, want 68 over 66", len(cfgs), len(distinct))
	}
	apps := len(s.EvaluatedNames())
	snap := reg.Snapshot()
	for kind, want := range map[string]int{ArtifactGolden: apps, ArtifactMissWeights: len(distinct)} {
		if got := counterValue(snap, "dcrm_artifact_computed_total", telemetry.Label{Name: "kind", Value: kind}); got != float64(want) {
			t.Errorf("%s artifacts computed %v times, want %d", kind, got, want)
		}
	}
	if got := counterValue(snap, "dcrm_artifact_requests_total", telemetry.Label{Name: "kind", Value: ArtifactCapture}); got != 0 {
		t.Errorf("%v capture artifact requests, want none", got)
	}
}

// TestOneExposureReplayPerCheckpoint: one timing replay per checkpoint
// yields both the miss selector and the store-commit timeline. Once
// MissSelector and the golden have been built, a transient campaign on the
// same checkpoint — which reads the timeline — computes no further
// artifact, and no timeline artifact kind is ever requested.
func TestOneExposureReplayPerCheckpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := suiteIn(t, testSuite(t), "", reg)
	cp, err := s.Checkpoint("P-BICG", core.Detection, 1)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := cp.MissSelector()
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.BuildArtifact(ArtifactGolden); err != nil {
		t.Fatal(err)
	}
	computed := func() float64 {
		n := 0.0
		for _, kind := range []string{ArtifactGolden, ArtifactMissWeights, "timeline"} {
			n += counterValue(reg.Snapshot(), "dcrm_artifact_computed_total", telemetry.Label{Name: "kind", Value: kind})
		}
		return n
	}
	before := computed()
	if _, err := cp.Campaign(fault.Campaign{Runs: 40, Seed: 9, Workers: 2}, fault.Transient{Flips: 3, Blocks: 1}, sel); err != nil {
		t.Fatal(err)
	}
	if after := computed(); after != before || before != 2 {
		t.Errorf("artifacts computed: %v before the transient campaign, %v after; want 2 and 2", before, after)
	}
	for _, name := range []string{"dcrm_artifact_requests_total", "dcrm_artifact_computed_total"} {
		if _, ok := reg.Snapshot().Get(name, telemetry.Label{Name: "kind", Value: "timeline"}); ok {
			t.Errorf("%s has a timeline series", name)
		}
	}
}

// TestSharedCaptureChargedOnce: the output and recording every checkpoint
// of an application shares are charged to the store's memory tier once, by
// the golden artifact's own entry, and not again to each checkpoint that
// classifies and replays against them.
func TestSharedCaptureChargedOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := paritySuite(t, nil, reg)
	const app = "P-BICG"
	base, err := s.App(app)
	if err != nil {
		t.Fatal(err)
	}
	var cps []*Checkpoint
	for _, scheme := range []core.Scheme{core.Detection, core.Correction} {
		for _, level := range protectedLevels(base) {
			cp, err := s.Checkpoint(app, scheme, level)
			if err != nil {
				t.Fatal(err)
			}
			cps = append(cps, cp)
		}
	}
	memBytes := func() float64 { return counterValue(reg.Snapshot(), "dcrm_store_mem_bytes") }
	before := memBytes()
	for _, cp := range cps {
		if err := cp.ensureGolden(); err != nil {
			t.Fatal(err)
		}
		if cp.capture == nil {
			t.Fatalf("%s: no capture", app)
		}
	}
	golden, err := computeGoldenArtifact(cps[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) < 2 || golden.Bytes <= 0 {
		t.Fatalf("%d checkpoints, recording of %d B: want several sharing a non-empty recording", len(cps), golden.Bytes)
	}
	if got, want := memBytes()-before, goldenSize(golden); got != float64(want) {
		t.Errorf("%d checkpoints' goldens raised the accounted bytes by %v, want the one golden entry's %d B (a %d B recording)",
			len(cps), got, want, golden.Bytes)
	}
}
