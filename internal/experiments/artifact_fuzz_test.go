package experiments

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/simt"
	"github.com/datacentric-gpu/dcrm/internal/store"
)

// The recording fields FuzzArtifactDecode mutates, one per input.
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
	mutCount
)

// fuzzApp is the application FuzzArtifactDecode corrupts the recording of.
const fuzzApp = "P-BICG"

// suiteIn stands for one process over a store directory: a suite with s's
// identity — so the same store keys — over a disk store opened in dir,
// sharing s's network instead of training a new one.
func suiteIn(t testing.TB, s *Suite, dir string) *Suite {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return &Suite{cfg: s.cfg, net: s.net, st: st, ctx: s.ctx, base: s.base}
}

// mutateRecording applies one fuzz-chosen change to a recording: a field
// of one load, store or warp of one launch set to a fuzz-chosen value, or a
// warp or launch dropped. Indices wrap, so every input mutates something.
func mutateRecording(warps [][]*simt.WarpCapture, what, kernel uint8, warp uint16, rec, lane uint8, v int32) {
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

// FuzzArtifactDecode corrupts a real golden recording, persists it through
// artifactDo into a disk store, and serves it to a second suite over the
// same directory, whose checkpoint runs a stuck-at campaign replaying
// against it. The campaign must never panic, and whenever checkRecording
// rejects the payload the served recording must be recomputed, so the
// campaign equals the cold one. A payload the check accepts fits the
// application; a changed value in it may change verdicts, but not crash.
// The first seed is the checksummed payload whose store names BufID 200,
// which killed a campaign worker when recordings were replayed unchecked.
func FuzzArtifactDecode(f *testing.F) {
	f.Add(uint8(mutStoreBufID), uint8(0), uint16(0), uint8(0), uint8(0), int32(200), uint8(0))
	f.Add(uint8(mutStoreIdx), uint8(0), uint16(3), uint8(0), uint8(5), int32(1<<20), uint8(1))
	f.Add(uint8(mutNumLanes), uint8(1), uint16(7), uint8(0), uint8(0), int32(33), uint8(2))
	f.Add(uint8(mutLoadBlock), uint8(0), uint16(1), uint8(1), uint8(0), int32(-1), uint8(0))
	f.Add(uint8(mutStoreVal), uint8(0), uint16(2), uint8(0), uint8(4), int32(12345), uint8(2))
	f.Add(uint8(mutDropKernel), uint8(1), uint16(9), uint8(0), uint8(0), int32(0), uint8(1))

	s := testSuite(f)
	schemes := []core.Scheme{core.None, core.Detection, core.Correction}
	model := fault.StuckAt{BitsPerWord: 3, Blocks: 1}
	campaign := fault.Campaign{Runs: 16, Seed: 5, Workers: 1}
	run := func(t testing.TB, s *Suite, scheme core.Scheme) fault.Result {
		t.Helper()
		app, err := s.App(fuzzApp)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := s.Checkpoint(fuzzApp, scheme, app.HotCount)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cp.Campaign(campaign, model, campaignSelector(t, s, cp, fuzzApp, "hot"))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := make([]fault.Result, len(schemes))
	for i, scheme := range schemes {
		cold[i] = run(f, s, scheme)
	}
	cp, err := s.Checkpoint(fuzzApp, core.None, 0)
	if err != nil {
		f.Fatal(err)
	}
	golden, err := computeGoldenArtifact(cp)
	if err != nil {
		f.Fatal(err)
	}
	var encoded bytes.Buffer
	if err := gob.NewEncoder(&encoded).Encode(golden); err != nil {
		f.Fatal(err)
	}
	base, err := s.App(fuzzApp)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, what, kernel uint8, warp uint16, rec, lane uint8, v int32, scheme uint8) {
		var art goldenArtifact
		if err := gob.NewDecoder(bytes.NewReader(encoded.Bytes())).Decode(&art); err != nil {
			t.Fatal(err)
		}
		mutateRecording(art.Warps, what, kernel, warp, rec, lane, v)
		rejected := checkRecording(base, art.Warps) != nil

		// One process persists the corrupted artifact…
		dir := t.TempDir()
		cp, err := suiteIn(t, s, dir).Checkpoint(fuzzApp, core.None, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := artifactDo(cp, ArtifactGolden, goldenSize, func() (goldenArtifact, error) {
			return art, nil
		}); err != nil {
			t.Fatal(err)
		}
		// …and the next is served it from disk.
		i := int(scheme) % len(schemes)
		got := run(t, suiteIn(t, s, dir), schemes[i])
		if rejected && !reflect.DeepEqual(got, cold[i]) {
			t.Errorf("rejected recording (mutation %d): campaign %+v, cold campaign %+v", what%mutCount, got, cold[i])
		}
	})
}
