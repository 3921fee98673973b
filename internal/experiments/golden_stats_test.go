package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/timing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenRun is one (application, scheme) replay's full per-kernel stats.
type goldenRun struct {
	App     string
	Scheme  string
	Level   int
	Kernels []timing.KernelStats
}

// goldenSchemes are the protection plans the determinism contract covers:
// unprotected baseline, lazy duplication (detection), and triplication with
// majority vote (correction).
var goldenSchemes = []core.Scheme{core.None, core.Detection, core.Correction}

// goldenLevel picks the protection level for an app: the hot objects when
// the access profile has a knee, every object otherwise (the
// counter-example apps have HotCount 0 but must still exercise the
// protected path where their objects allow it).
func goldenLevel(appName string, s *Suite) (int, error) {
	app, err := s.App(appName)
	if err != nil {
		return 0, err
	}
	if app.HotCount > 0 {
		return app.HotCount, nil
	}
	return len(app.Objects), nil
}

// collectGoldenRuns replays every application of the study under every
// golden scheme on a fresh engine and returns the per-kernel stats.
func collectGoldenRuns(t *testing.T, s *Suite) []goldenRun {
	t.Helper()
	var out []goldenRun
	for _, name := range s.AllNames() {
		traces, err := s.Traces(name)
		if err != nil {
			t.Fatalf("traces %s: %v", name, err)
		}
		level, err := goldenLevel(name, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range goldenSchemes {
			var tplan timing.ProtectionPlan
			lvl := 0
			if scheme != core.None {
				_, plan, err := s.PlanFor(name, scheme, level)
				if err != nil {
					t.Fatalf("plan %s %v: %v", name, scheme, err)
				}
				if plan != nil {
					tplan = plan
					lvl = level
				}
			}
			eng, err := timing.New(arch.Default(), tplan)
			if err != nil {
				t.Fatal(err)
			}
			st, err := eng.RunApp(name, traces)
			if err != nil {
				t.Fatalf("run %s %v: %v", name, scheme, err)
			}
			out = append(out, goldenRun{
				App:     name,
				Scheme:  scheme.String(),
				Level:   lvl,
				Kernels: st.Kernels,
			})
		}
	}
	return out
}

// TestGoldenKernelStats is the timing engine's determinism contract: for
// all ten applications under baseline, duplication-lazy, and triplication
// plans, every KernelStats field (cycles, instructions, L1/L2/DRAM/NoC
// counters, copy transactions, stall counts) must match
// testdata/golden_stats.json bit for bit. The golden file was captured
// from the pre-optimization (container/heap + closure) engine, so any
// event-ordering change in the optimized engine fails here.
//
// Regenerate (only when an intentional semantic change is made):
//
//	go test ./internal/experiments -run TestGoldenKernelStats -update
func TestGoldenKernelStats(t *testing.T) {
	got := collectGoldenRuns(t, testSuite(t))
	path := filepath.Join("testdata", "golden_stats.json")

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden runs to %s", len(got), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden runs = %d, want %d (regenerate with -update?)", len(got), len(want))
	}
	for i := range want {
		if got[i].App != want[i].App || got[i].Scheme != want[i].Scheme || got[i].Level != want[i].Level {
			t.Fatalf("run %d is %s/%s/L%d, want %s/%s/L%d",
				i, got[i].App, got[i].Scheme, got[i].Level, want[i].App, want[i].Scheme, want[i].Level)
		}
		if !reflect.DeepEqual(got[i].Kernels, want[i].Kernels) {
			for k := range want[i].Kernels {
				if k < len(got[i].Kernels) && !reflect.DeepEqual(got[i].Kernels[k], want[i].Kernels[k]) {
					t.Errorf("%s/%s kernel %d stats diverged:\n got %+v\nwant %+v",
						want[i].App, want[i].Scheme, k, got[i].Kernels[k], want[i].Kernels[k])
				}
			}
			t.Fatalf("%s/%s: KernelStats not bit-identical to golden", want[i].App, want[i].Scheme)
		}
	}
}
