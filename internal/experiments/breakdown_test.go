package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// goldenResult fills every outcome counter with a distinct value so a
// swapped or dropped column is visible in the golden bytes.
var goldenResult = fault.Result{
	Runs: 15, MaskedRuns: 5, SDCRuns: 4, DetectedRuns: 3, CrashedRuns: 2, DUERuns: 1,
}

// TestExportCSVGoldenBytes pins the campaign exporters' exact output —
// header spelling, column order (the canonical fault.Outcomes() order,
// DUE last), and row layout. A reordered or renamed column breaks every
// downstream plotting script, so any intentional change must edit these
// literals in the same commit.
func TestExportCSVGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	info := fault.Info(fault.StuckAt{BitsPerWord: 3, Blocks: 1})

	if err := ExportFig6CSV(dir, []Fig6Cell{
		{App: "P-X", Space: "hot", Model: info, Result: goldenResult},
	}); err != nil {
		t.Fatal(err)
	}
	wantFig6 := "app,space,model,params,runs,masked,sdc,detected,crashed,due\n" +
		"P-X,hot,stuck-at,\"bits=3,blocks=1\",15,5,4,3,2,1\n"
	assertFileBytes(t, filepath.Join(dir, "fig6_hot_vs_rest.csv"), wantFig6)

	if err := ExportFig9CSV(dir, []Fig9Cell{
		{App: "P-X", Scheme: core.None, Level: 0, Model: info, Result: goldenResult},
		{App: "P-X", Scheme: core.Detection, Level: 2, Model: info, Result: goldenResult},
	}); err != nil {
		t.Fatal(err)
	}
	wantFig9 := "app,scheme,objects,model,params,runs,masked,sdc,detected,crashed,due\n" +
		"P-X,baseline,0,stuck-at,\"bits=3,blocks=1\",15,5,4,3,2,1\n" +
		"P-X,detection,2,stuck-at,\"bits=3,blocks=1\",15,5,4,3,2,1\n"
	assertFileBytes(t, filepath.Join(dir, "fig9_resilience.csv"), wantFig9)

	if err := ExportBreakdownCSV(dir, []Fig9Cell{
		{App: "P-X", Scheme: core.Correction, Level: 2,
			Model: fault.Info(fault.Transient{Flips: 2, Blocks: 1}), Result: goldenResult},
	}); err != nil {
		t.Fatal(err)
	}
	wantBreakdown := "app,scheme,objects,model,params,runs,masked,sdc,detected,crashed,due\n" +
		"P-X,detection+correction,2,transient,\"blocks=1,flips=2\",15,5,4,3,2,1\n"
	assertFileBytes(t, filepath.Join(dir, "fault_model_breakdown.csv"), wantBreakdown)
}

func assertFileBytes(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("%s golden mismatch\ngot:\n%s\nwant:\n%s", filepath.Base(path), got, want)
	}
}

// TestFaultModelBreakdown runs the breakdown experiment over every
// application (counter-examples included) with a permanent and a transient
// model and checks the result's shape and accounting: one cell per
// (application, configuration, model) in sweep order, every cell's outcome
// counts reconciling with its run count, and the SECDED-uncorrectable
// 2-flip transient actually producing DUE outcomes somewhere in the sweep.
func TestFaultModelBreakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign sweeps in -short mode")
	}
	s := testSuite(t)
	models := []fault.Model{
		fault.StuckAt{BitsPerWord: 3, Blocks: 1},
		fault.Transient{Flips: 2, Blocks: 1},
	}
	cells, err := FaultModelBreakdown(s, BreakdownConfig{Runs: 6, Seed: 31, Models: models})
	if err != nil {
		t.Fatal(err)
	}
	apps := s.AllNames()
	wantCells := len(apps) * 3 * len(models) // baseline + two schemes, per model
	if len(cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(cells), wantCells)
	}

	due := 0
	i := 0
	for _, app := range apps {
		for cfgIdx := 0; cfgIdx < 3; cfgIdx++ {
			for _, m := range models {
				c := cells[i]
				i++
				if c.App != app || c.Model != fault.Info(m) {
					t.Fatalf("cell %d = (%s, %v), want (%s, %v): sweep order broken",
						i-1, c.App, c.Model, app, fault.Info(m))
				}
				// Baseline cells sit at level 0; scheme cells sit at the
				// application's hot level (which is 0 for the counter-example
				// applications — they have no hot objects to protect).
				if c.Scheme == core.None && c.Level != 0 {
					t.Errorf("cell %d: baseline at level %d", i-1, c.Level)
				}
				var sum int
				for _, o := range fault.Outcomes() {
					sum += c.Result.Count(o)
				}
				if sum != c.Result.Runs || c.Result.Runs != 6 {
					t.Errorf("cell %d (%s %v %v): outcomes sum to %d of %d runs",
						i-1, c.App, c.Scheme, c.Model, sum, c.Result.Runs)
				}
				if c.Model.Name == "transient" {
					due += c.Result.DUERuns
				} else if c.Result.DUERuns != 0 {
					t.Errorf("cell %d: stuck-at campaign reported %d DUE runs", i-1, c.Result.DUERuns)
				}
			}
		}
	}
	if due == 0 {
		t.Error("2-flip transient sweep produced no DUE outcomes across any application")
	}
}

// TestBreakdownStoreKeySeparation: the model set is part of the breakdown
// result's store identity. Different model sets must compute separately,
// and a repeat of an earlier set must be served from the store.
func TestBreakdownStoreKeySeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign sweeps in -short mode")
	}
	reg := telemetry.NewRegistry()
	s, err := NewSuite(SuiteConfig{NNTrainSamples: 60, Workers: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	cfg := BreakdownConfig{Runs: 4, Seed: 9, Apps: []string{"P-BICG"}}

	cfg.Models = []fault.Model{fault.StuckAt{BitsPerWord: 3, Blocks: 1}}
	first, err := FaultModelBreakdown(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Models = []fault.Model{fault.StuckAt{BitsPerWord: 4, Blocks: 1}}
	if _, err := FaultModelBreakdown(s, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Models = []fault.Model{fault.StuckAt{BitsPerWord: 3, Blocks: 1}}
	repeat, err := FaultModelBreakdown(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != repeat[i] {
			t.Fatalf("repeat request returned different cells: %+v vs %+v", first[i], repeat[i])
		}
	}

	snap := reg.Snapshot()
	computed, _ := snap.Get("dcrm_experiment_results_computed_total", telemetry.Label{Name: "figure", Value: "breakdown"})
	if int(computed.Value) != 2 {
		t.Errorf("computed %v breakdown results, want 2 (distinct model sets only)", computed.Value)
	}
	requests, _ := snap.Get("dcrm_experiment_results_requests_total", telemetry.Label{Name: "figure", Value: "breakdown"})
	if int(requests.Value) != 3 {
		t.Errorf("recorded %v breakdown requests, want 3", requests.Value)
	}
}
