package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/simt"
)

var updateMissWeightsGolden = flag.Bool("update-missweights-golden", false,
	"regenerate testdata/missweights_golden.json from the current timing engine")

// missWeightsGoldenRow is one configuration's Fig. 8 miss histogram in the
// golden file: its size, its total, and a digest of the exact histogram.
type missWeightsGoldenRow struct {
	App    string `json:"app"`
	Scheme string `json:"scheme"`
	Level  int    `json:"level"`
	Blocks int    `json:"blocks"`
	Misses uint64 `json:"misses"`
	SHA256 string `json:"sha256"`
}

// histogramDigest returns the SHA-256 of the ordered (block, weight) list,
// each pair encoded as two little-endian uint64s (the weight as its IEEE 754
// bits).
func histogramDigest(blocks []arch.BlockAddr, weights []float64) string {
	h := sha256.New()
	var buf [16]byte
	for i, b := range blocks {
		binary.LittleEndian.PutUint64(buf[:8], uint64(b))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(weights[i]))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMissWeightsGolden pins the per-block L1-miss histograms that weight
// Fig. 9's fault injection (Fig. 8) for every application under baseline,
// detection and correction at its hot level, against a committed golden
// file. golden_stats.json pins only per-kernel aggregates, so a change in
// how the timing engine attributes misses to blocks shows up here first.
//
// Regenerate (only when an intentional semantic change is made):
//
//	go test ./internal/experiments -run TestMissWeightsGolden -update-missweights-golden
func TestMissWeightsGolden(t *testing.T) {
	s := testSuite(t)
	schemes := []core.Scheme{core.None, core.Detection, core.Correction}
	var got []missWeightsGoldenRow
	for _, name := range s.AllNames() {
		base, err := s.App(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range schemes {
			level := 0
			if scheme != core.None {
				level = base.HotCount
			}
			cp, err := s.Checkpoint(name, scheme, level)
			if err != nil {
				t.Fatal(err)
			}
			traces, err := cp.traces()
			if err != nil {
				t.Fatal(err)
			}
			art, err := replayExposure(cp.App, cp.Plan, traces)
			if err != nil {
				t.Fatalf("%s %v L%d: %v", name, scheme, level, err)
			}
			blocks, weights := art.Blocks, art.Weights
			var misses uint64
			for _, w := range weights {
				misses += uint64(w)
			}
			got = append(got, missWeightsGoldenRow{
				App: name, Scheme: scheme.String(), Level: level,
				Blocks: len(blocks), Misses: misses, SHA256: histogramDigest(blocks, weights),
			})
		}
	}

	path := filepath.Join("testdata", "missweights_golden.json")
	if *updateMissWeightsGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(got), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update-missweights-golden): %v", err)
	}
	var want []missWeightsGoldenRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d (%s %s L%d): got %+v, golden %+v",
				i, want[i].App, want[i].Scheme, want[i].Level, got[i], want[i])
		}
	}
}

// TestProtectedInstanceTracesMatchBase pins what lets every checkpoint's
// exposure replay reuse the suite's memoized base traces: a protected
// instance's capture deep-equals its application's base capture, at every
// level of both schemes, because replicas are allocated after every
// primary object and no kernel addresses them.
func TestProtectedInstanceTracesMatchBase(t *testing.T) {
	s := testSuite(t)
	configs := 0
	for _, name := range s.AllNames() {
		app, err := s.App(name)
		if err != nil {
			t.Fatal(err)
		}
		base, err := s.Traces(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []core.Scheme{core.Detection, core.Correction} {
			for _, level := range protectedLevels(app) {
				cp, err := s.Checkpoint(name, scheme, level)
				if err != nil {
					t.Fatal(err)
				}
				traces, err := cp.App.TraceRun()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(traces, base) {
					t.Errorf("%s %v L%d: protected instance traces differ from the base traces", name, scheme, level)
				}
				configs++
			}
		}
	}
	if configs == 0 {
		t.Fatal("no protected configurations checked")
	}
	t.Logf("%d protected configurations match their base traces", configs)
}

// TestProtectedInstanceCapturesMatchBase pins what lets every checkpoint of
// an application share one golden artifact, recording included: for each
// of Fig. 9's configurations, the golden artifact recorded on the
// configuration's instance (no scheme reader, as computeGoldenArtifact
// runs it) equals the application's baseline one, because replicas are
// allocated after every primary object and no kernel addresses them.
// Protected configurations run as parallel subtests.
func TestProtectedInstanceCapturesMatchBase(t *testing.T) {
	s := testSuite(t)
	cfgs, err := s.configs(s.EvaluatedNames(), protectingSchemes, protectedLevels)
	if err != nil {
		t.Fatal(err)
	}
	record := func(t *testing.T, c checkpointConfig) goldenArtifact {
		t.Helper()
		cp, err := s.Checkpoint(c.app, c.scheme, c.level)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := computeGoldenArtifact(cp)
		if err != nil {
			t.Fatal(err)
		}
		if golden.Launches == nil {
			t.Fatalf("%s %v L%d: no recording", c.app, c.scheme, c.level)
		}
		return golden
	}
	var baseApp string
	var baseGolden goldenArtifact
	protected := 0
	for _, c := range cfgs {
		if c.level == 0 {
			baseApp = c.app
			baseGolden = record(t, c)
			continue
		}
		if c.app != baseApp {
			t.Fatalf("%s %v L%d precedes the app's baseline", c.app, c.scheme, c.level)
		}
		protected++
		want := baseGolden
		t.Run(fmt.Sprintf("%s/%v/L%d", c.app, c.scheme, c.level), func(t *testing.T) {
			t.Parallel()
			if !sameGolden(record(t, c), want) {
				t.Error("golden artifact differs from the baseline's")
			}
		})
	}
	if protected == 0 || protected == len(cfgs) {
		t.Fatalf("%d of %d configurations protected, want baselines and protected ones", protected, len(cfgs))
	}
}

// sameGolden is reflect.DeepEqual over two golden artifacts, with the
// recording's arenas compared by slices.Equal: DeepEqual would walk their
// millions of elements one reflected value at a time.
func sameGolden(a, b goldenArtifact) bool {
	al, bl := a.Launches, b.Launches
	a.Launches, b.Launches = nil, nil
	return reflect.DeepEqual(a, b) && slices.EqualFunc(al, bl, func(x, y simt.Launch) bool {
		return slices.Equal(x.Warps, y.Warps) && slices.Equal(x.Loads, y.Loads) && slices.Equal(x.Stores, y.Stores) &&
			slices.Equal(x.Idx, y.Idx) && slices.Equal(x.Vals, y.Vals) && slices.Equal(x.Blocks, y.Blocks)
	})
}
