package experiments

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/kernels"
	"github.com/datacentric-gpu/dcrm/internal/store"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// The golden artifact fields FuzzArtifactDecode mutates, one per input:
// recording fields, then the whole recording and the output.
const (
	mutStoreBufID = iota
	mutStoreIdx
	mutStoreVal
	mutStoreLanes
	mutLoadBufID
	mutLoadVals
	mutLoadBlock
	mutLoadBroadcast
	mutNumLanes
	mutWarpID
	mutCTAIdx
	mutDropWarp
	mutDropKernel
	mutFootprint
	mutNoRecording
	mutCutLaunches
	mutOutput
	mutCount
)

// fuzzApp is the application FuzzArtifactDecode corrupts the recording of.
const fuzzApp = "P-BICG"

// suiteIn stands for one process over a store directory ("" for a
// memory-only store): a suite with s's identity — so the same store keys —
// reporting to reg (nil for none), sharing s's network instead of training
// a new one.
func suiteIn(t testing.TB, s *Suite, dir string, reg *telemetry.Registry) *Suite {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.cfg
	cfg.Telemetry = reg
	return &Suite{cfg: cfg, net: s.net, st: st, ctx: s.ctx, base: s.base}
}

// mutateGolden applies one fuzz-chosen change to a golden artifact: a
// field of one load, store or warp of one launch set to a fuzz-chosen
// value, a warp dropped or a launch's warps cut short, the recording
// dropped or its launch list cut short, or the output cut short. Indices
// wrap, so every input mutates something.
func mutateGolden(art *goldenArtifact, what, kernel uint8, warp uint16, rec, lane uint8, v int32) {
	switch what % mutCount {
	case mutNoRecording:
		art.Warps, art.Bytes = nil, 0
		return
	case mutCutLaunches:
		art.Warps = art.Warps[:int(kernel)%len(art.Warps)]
		return
	case mutOutput:
		art.Output = art.Output[:int(lane)%len(art.Output)]
		return
	}
	warps := art.Warps
	ks := warps[int(kernel)%len(warps)]
	g := int(warp) % len(ks)
	wc := ks[g]
	switch what % mutCount {
	case mutDropWarp:
		ks[g] = nil
		return
	case mutDropKernel:
		warps[int(kernel)%len(warps)] = ks[:g]
		return
	case mutNumLanes:
		wc.NumLanes = int(v)
		return
	case mutWarpID:
		wc.GlobalWarpID = int(v)
		return
	case mutCTAIdx:
		wc.CTAIdx.X = int(v)
		return
	case mutFootprint:
		wc.LoadBlocks = append(wc.LoadBlocks, arch.BlockAddr(uint32(v)))
		return
	}
	if what%mutCount < mutLoadBufID {
		if len(wc.Stores) == 0 {
			return
		}
		st := &wc.Stores[int(rec)%len(wc.Stores)]
		switch what % mutCount {
		case mutStoreBufID:
			st.BufID = int16(v)
		case mutStoreIdx:
			st.Idx[int(lane)%len(st.Idx)] = v
		case mutStoreVal:
			st.Vals[int(lane)%len(st.Vals)] = uint32(v)
		case mutStoreLanes:
			st.Idx = st.Idx[:int(lane)%len(st.Idx)]
		}
		return
	}
	if len(wc.Loads) == 0 {
		return
	}
	ld := &wc.Loads[int(rec)%len(wc.Loads)]
	switch what % mutCount {
	case mutLoadBufID:
		ld.BufID = int16(v)
	case mutLoadVals:
		ld.Vals = ld.Vals[:int(lane)%len(ld.Vals)]
	case mutLoadBlock:
		if len(ld.Blocks) > 0 {
			ld.Blocks[int(lane)%len(ld.Blocks)] = arch.BlockAddr(uint32(v))
		}
	case mutLoadBroadcast:
		ld.Broadcast = !ld.Broadcast
	}
}

// fuzzCampaign runs the stuck-at campaign FuzzArtifactDecode and
// TestRejectedGoldenHealed compare: fuzzApp at its hot level under the
// scheme, hot blocks targeted, replayed against the golden recording.
func fuzzCampaign(t testing.TB, s *Suite, scheme core.Scheme) fault.Result {
	t.Helper()
	app, err := s.App(fuzzApp)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint(fuzzApp, scheme, app.HotCount)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cp.Campaign(fault.Campaign{Runs: 16, Seed: 5, Workers: 1}, fault.StuckAt{BitsPerWord: 3, Blocks: 1},
		campaignSelector(t, s, cp, fuzzApp, "hot"))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fuzzSchemes are the schemes of the checkpoints a served golden reaches.
var fuzzSchemes = []core.Scheme{core.None, core.Detection, core.Correction}

// encodedGolden returns fuzzApp's golden artifact, gob-encoded, cold
// campaign results per fuzzSchemes, and the application's base instance.
func encodedGolden(t testing.TB, s *Suite) ([]byte, []fault.Result, *kernels.App) {
	t.Helper()
	cold := make([]fault.Result, len(fuzzSchemes))
	for i, scheme := range fuzzSchemes {
		cold[i] = fuzzCampaign(t, s, scheme)
	}
	cp, err := s.Checkpoint(fuzzApp, core.None, 0)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := computeGoldenArtifact(cp)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.App(fuzzApp)
	if err != nil {
		t.Fatal(err)
	}
	return gobBytes(t, golden), cold, base
}

// decodeGolden decodes a private copy of an encoded golden artifact.
func decodeGolden(t testing.TB, encoded []byte) goldenArtifact {
	t.Helper()
	var art goldenArtifact
	if err := gob.NewDecoder(bytes.NewReader(encoded)).Decode(&art); err != nil {
		t.Fatal(err)
	}
	return art
}

// persistGolden stands for a process that wrote art as fuzzApp's golden
// artifact into the store directory.
func persistGolden(t testing.TB, s *Suite, dir string, art goldenArtifact) {
	t.Helper()
	cp, err := suiteIn(t, s, dir, nil).Checkpoint(fuzzApp, core.None, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := artifactDo(cp, ArtifactGolden, store.Options[goldenArtifact]{Size: goldenSize}, func() (goldenArtifact, error) {
		return art, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// FuzzArtifactDecode corrupts a real golden artifact, persists it through
// artifactDo into a disk store, and serves it to a second suite over the
// same directory, whose checkpoint runs a stuck-at campaign replaying
// against it. The campaign must never panic, and whenever checkGolden
// rejects the payload the served golden must be recomputed, so the
// campaign equals the cold one. A payload the check accepts fits the
// application; a changed value in it may change verdicts, but not crash.
// The first seed is the checksummed payload whose store names BufID 200,
// which killed a campaign worker when recordings were replayed unchecked;
// the seventh is a golden with no recording, the shape an oversized
// recording was once persisted in; the last is a one-value output, which
// failed every campaign of the application when only the recording was
// checked.
func FuzzArtifactDecode(f *testing.F) {
	f.Add(uint8(mutStoreBufID), uint8(0), uint16(0), uint8(0), uint8(0), int32(200), uint8(0))
	f.Add(uint8(mutStoreIdx), uint8(0), uint16(3), uint8(0), uint8(5), int32(1<<20), uint8(1))
	f.Add(uint8(mutNumLanes), uint8(1), uint16(7), uint8(0), uint8(0), int32(33), uint8(2))
	f.Add(uint8(mutLoadBlock), uint8(0), uint16(1), uint8(1), uint8(0), int32(-1), uint8(0))
	f.Add(uint8(mutStoreVal), uint8(0), uint16(2), uint8(0), uint8(4), int32(12345), uint8(2))
	f.Add(uint8(mutDropKernel), uint8(1), uint16(9), uint8(0), uint8(0), int32(0), uint8(1))
	f.Add(uint8(mutNoRecording), uint8(0), uint16(0), uint8(0), uint8(0), int32(0), uint8(0))
	f.Add(uint8(mutOutput), uint8(0), uint16(0), uint8(0), uint8(1), int32(0), uint8(2))

	s := testSuite(f)
	encoded, cold, base := encodedGolden(f, s)

	f.Fuzz(func(t *testing.T, what, kernel uint8, warp uint16, rec, lane uint8, v int32, scheme uint8) {
		art := decodeGolden(t, encoded)
		mutateGolden(&art, what, kernel, warp, rec, lane, v)
		rejected := checkGolden(base, art) != nil

		// One process persists the corrupted artifact…
		dir := t.TempDir()
		persistGolden(t, s, dir, art)
		// …and the next is served it from disk.
		i := int(scheme) % len(fuzzSchemes)
		got := fuzzCampaign(t, suiteIn(t, s, dir, nil), fuzzSchemes[i])
		if rejected && !reflect.DeepEqual(got, cold[i]) {
			t.Errorf("rejected golden (mutation %d): campaign %+v, cold campaign %+v", what%mutCount, got, cold[i])
		}
	})
}

// TestRejectedGoldenHealed: a golden artifact that passes the store's
// checksum but does not fit its application — one without a recording (the
// shape an oversized recording was once persisted in), a recording missing
// its last launch, an output cut to one value, a recorded store into a data
// object that does not exist — is
// recomputed once by a process that serves it to three checkpoints, whose
// campaigns equal the cold ones, and the fresh artifact overwrites it: the
// next process serves the healed entry and computes nothing.
func TestRejectedGoldenHealed(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns in -short mode")
	}
	s := testSuite(t)
	encoded, cold, base := encodedGolden(t, s)
	goldenComputes := func(reg *telemetry.Registry) float64 {
		return counterValue(reg.Snapshot(), "dcrm_artifact_computed_total", telemetry.Label{Name: "kind", Value: ArtifactGolden})
	}
	for _, bad := range []struct {
		name   string
		mutate func(*goldenArtifact)
	}{
		{"no recording", func(art *goldenArtifact) { mutateGolden(art, mutNoRecording, 0, 0, 0, 0, 0) }},
		{"last launch missing", func(art *goldenArtifact) { art.Warps = art.Warps[:len(art.Warps)-1] }},
		{"truncated output", func(art *goldenArtifact) { art.Output = art.Output[:1] }},
		{"store into a missing object", func(art *goldenArtifact) { mutateGolden(art, mutStoreBufID, 0, 0, 0, 0, 200) }},
	} {
		t.Run(bad.name, func(t *testing.T) {
			art := decodeGolden(t, encoded)
			bad.mutate(&art)
			if checkGolden(base, art) == nil {
				t.Fatal("checkGolden accepts the damaged artifact")
			}
			dir := t.TempDir()
			persistGolden(t, s, dir, art)

			reg := telemetry.NewRegistry()
			served := suiteIn(t, s, dir, reg)
			for i, scheme := range fuzzSchemes {
				if got := fuzzCampaign(t, served, scheme); got != cold[i] {
					t.Errorf("%v campaign %+v, cold campaign %+v", scheme, got, cold[i])
				}
			}
			if got := goldenComputes(reg); got != 1 {
				t.Errorf("golden computed %v times for %d checkpoints, want once", got, len(fuzzSchemes))
			}
			if got := counterValue(reg.Snapshot(), "dcrm_store_disk_corrupt_total"); got != 1 {
				t.Errorf("%v disk entries dropped as corrupt, want 1", got)
			}

			reg = telemetry.NewRegistry()
			if got := fuzzCampaign(t, suiteIn(t, s, dir, reg), core.None); got != cold[0] {
				t.Errorf("healed entry: campaign %+v, cold campaign %+v", got, cold[0])
			}
			if got := goldenComputes(reg); got != 0 {
				t.Errorf("the process after the healing computed the golden %v times, want 0", got)
			}
		})
	}
}
