package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/timing"
)

// sharedSuite caches one suite across tests (the C-NN network is the
// expensive part).
var (
	suiteOnce sync.Once
	suiteVal  *Suite
	suiteErr  error
)

func testSuite(t testing.TB) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = NewSuite(SuiteConfig{NNTrainSamples: 60})
	})
	if suiteErr != nil {
		t.Fatalf("NewSuite: %v", suiteErr)
	}
	return suiteVal
}

func TestFig2Data(t *testing.T) {
	rows := Fig2L2Trend()
	if len(rows) < 10 {
		t.Fatalf("Fig2 rows = %d, want the full history", len(rows))
	}
	// The trend: latest NVIDIA part has ≥10× the L2 of the 2010 part.
	var first, last int
	for _, r := range rows {
		if r.Vendor != "NVIDIA" {
			continue
		}
		if first == 0 {
			first = r.L2KB
		}
		last = r.L2KB
	}
	if last < 10*first {
		t.Errorf("L2 growth %d → %d KB; Fig. 2 shows ≥10×", first, last)
	}
}

func TestFig3Profiles(t *testing.T) {
	s := testSuite(t)
	results, err := Fig3AccessProfiles(s, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("Fig3 results = %d, want 10", len(results))
	}
	byName := map[string]Fig3Result{}
	for _, r := range results {
		byName[r.App] = r
	}
	for _, name := range s.EvaluatedNames() {
		if !byName[name].HotPattern {
			t.Errorf("%s: expected the Fig. 3(a)–(f) hot knee", name)
		}
	}
	if byName["C-BlackScholes"].HotPattern {
		t.Error("C-BlackScholes: expected flat profile (Fig. 3(g))")
	}
	if byName["P-GRAMSCHM"].HotPattern {
		t.Error("P-GRAMSCHM: expected staircase profile (Fig. 3(h))")
	}
	// Every hot-knee app shows a clear concentration ratio (the paper
	// cites 4732× for C-NN at full scale; the ratio grows with problem
	// size — P-GESUMMV's is ≈N/32 — so at the scaled defaults the floor is
	// modest).
	for _, name := range s.EvaluatedNames() {
		if byName[name].MaxMinRatio < 5 {
			t.Errorf("%s: max/min ratio %.0f, want a clear knee", name, byName[name].MaxMinRatio)
		}
	}
}

func TestFig4WarpSharing(t *testing.T) {
	s := testSuite(t)
	results, err := Fig4WarpSharing(s, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("Fig4 results = %d, want 4", len(results))
	}
	for _, r := range results {
		if len(r.Series) == 0 {
			t.Fatalf("%s: empty series", r.App)
		}
		top := r.Series[len(r.Series)-1]
		bottom := r.Series[0]
		// Observation II: hot blocks are far more widely shared.
		if top < 2*bottom && top < 50 {
			t.Errorf("%s: hot block share %.1f%% not ≫ cold %.1f%%", r.App, top, bottom)
		}
	}
}

func TestTable3(t *testing.T) {
	s := testSuite(t)
	rows, err := Table3DataObjects(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("Table3 rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if len(r.Objects) == 0 {
			t.Fatalf("%s: no objects", r.App)
		}
		// The top-ranked object must be hot for every evaluated app.
		if !r.Objects[0].Hot {
			t.Errorf("%s: top object %q not hot", r.App, r.Objects[0].Name)
		}
		// Hot footprints are small (Table III: ≤2.15%% at paper scale;
		// allow slack for the scaled inputs).
		if r.HotSizePercent > 10 {
			t.Errorf("%s: hot size %.2f%%, want small", r.App, r.HotSizePercent)
		}
		if r.HotAccessPercent <= 0 || r.HotAccessPercent > 100 {
			t.Errorf("%s: hot access %.2f%% out of range", r.App, r.HotAccessPercent)
		}
	}
}

func TestFig6HotVsRestShape(t *testing.T) {
	s := testSuite(t)
	cells, err := Fig6HotVsRest(s, Fig6Config{
		Runs: 40,
		Apps: []string{"P-BICG", "A-Laplacian"},
		Models: []fault.Model{
			fault.StuckAt{BitsPerWord: 2, Blocks: 1},
			fault.StuckAt{BitsPerWord: 4, Blocks: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*2 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	sdc := map[string]int{}
	for _, c := range cells {
		sdc[c.App+"/"+c.Space+"/"+c.Model.String()] = c.Result.SDCRuns
	}
	for _, app := range []string{"P-BICG", "A-Laplacian"} {
		// Observation III: hot faults produce more SDCs than rest faults at
		// the heaviest configuration.
		heavy := "/4-bit/5-block"
		if sdc[app+"/hot"+heavy] <= sdc[app+"/rest"+heavy] {
			t.Errorf("%s: hot SDC %d not above rest SDC %d (4-bit/5-block)",
				app, sdc[app+"/hot"+heavy], sdc[app+"/rest"+heavy])
		}
		// More faulty blocks/bits → no fewer SDCs in the hot space.
		if sdc[app+"/hot/4-bit/5-block"] < sdc[app+"/hot/2-bit/1-block"] {
			t.Errorf("%s: SDC decreased with heavier faults: %d < %d", app,
				sdc[app+"/hot/4-bit/5-block"], sdc[app+"/hot/2-bit/1-block"])
		}
	}
}

func TestFig7OverheadShape(t *testing.T) {
	s := testSuite(t)
	points, err := Fig7Overhead(s, Fig7Config{Apps: []string{"P-BICG", "P-MVT"}})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Fig7Point{}
	for _, p := range points {
		byKey[p.App+"/"+p.Scheme.String()+"/"+itoa(p.Level)] = p
	}
	for _, app := range []string{"P-BICG", "P-MVT"} {
		base := byKey[app+"/baseline/0"]
		if base.NormTime != 1 || base.Cycles == 0 {
			t.Fatalf("%s: bad baseline %+v", app, base)
		}
		detHot := byKey[app+"/detection/2"]
		corHot := byKey[app+"/detection+correction/2"]
		detAll := byKey[app+"/detection/3"]
		corAll := byKey[app+"/detection+correction/3"]
		// Protection never speeds the app up.
		for label, p := range map[string]Fig7Point{"detHot": detHot, "corHot": corHot, "detAll": detAll, "corAll": corAll} {
			if p.NormTime < 0.999 {
				t.Errorf("%s %s: normalized time %.4f below baseline", app, label, p.NormTime)
			}
		}
		// Hot-only protection is cheap; full protection is expensive
		// (Section V-A: 1.2%/3.4% vs 40.65%/74.24%).
		if detHot.NormTime > 1.15 {
			t.Errorf("%s: detection-hot overhead %.3f, want small", app, detHot.NormTime)
		}
		if detAll.NormTime < detHot.NormTime {
			t.Errorf("%s: full detection (%.3f) cheaper than hot-only (%.3f)", app, detAll.NormTime, detHot.NormTime)
		}
		if corAll.NormTime < detAll.NormTime {
			t.Errorf("%s: full correction (%.3f) cheaper than full detection (%.3f)", app, corAll.NormTime, detAll.NormTime)
		}
		// L1 missed accesses grow with protection level (Fig. 7's second
		// series).
		if detAll.NormMisses <= detHot.NormMisses {
			t.Errorf("%s: full-detection misses (%.3f) not above hot-only (%.3f)", app, detAll.NormMisses, detHot.NormMisses)
		}
	}
}

func itoa(n int) string {
	return string(rune('0' + n))
}

func TestSummarizeFig7(t *testing.T) {
	points := []Fig7Point{
		{App: "X", Scheme: core.Detection, Level: 1, NormTime: 1.02},
		{App: "X", Scheme: core.Correction, Level: 1, NormTime: 1.05},
		{App: "X", Scheme: core.Detection, Level: 3, NormTime: 1.40},
		{App: "X", Scheme: core.Correction, Level: 3, NormTime: 1.80},
	}
	hot := map[string]int{"X": 1}
	all := map[string]int{"X": 3}
	sum := SummarizeFig7(points, hot, all)
	if !close(sum.DetectionHotOverhead, 0.02) || !close(sum.CorrectionHotOverhead, 0.05) {
		t.Errorf("hot overheads = %+v", sum)
	}
	if !close(sum.DetectionAllOverhead, 0.40) || !close(sum.CorrectionAllOverhead, 0.80) {
		t.Errorf("all overheads = %+v", sum)
	}
}

func close(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

func TestFig9ResilienceShape(t *testing.T) {
	s := testSuite(t)
	cells, err := Fig9Resilience(s, Fig9Config{
		Runs:   40,
		Apps:   []string{"P-BICG"},
		Models: []fault.Model{fault.StuckAt{BitsPerWord: 3, Blocks: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var baseline, detHot, corHot *Fig9Cell
	for i := range cells {
		c := &cells[i]
		switch {
		case c.Scheme == core.None:
			baseline = c
		case c.Scheme == core.Detection && c.Level == 2:
			detHot = c
		case c.Scheme == core.Correction && c.Level == 2:
			corHot = c
		}
	}
	if baseline == nil || detHot == nil || corHot == nil {
		t.Fatalf("missing cells in %d results", len(cells))
	}
	if baseline.Result.SDCRuns == 0 {
		t.Fatal("baseline produced no SDCs; the experiment shows nothing")
	}
	// Protecting the hot objects must slash SDCs (paper: −98.97% on
	// average) — with L1-miss-weighted whole-space injection most faults
	// land in protected (or replica) space.
	if detHot.Result.SDCRuns >= baseline.Result.SDCRuns {
		t.Errorf("detection SDC %d not below baseline %d", detHot.Result.SDCRuns, baseline.Result.SDCRuns)
	}
	if corHot.Result.SDCRuns >= baseline.Result.SDCRuns {
		t.Errorf("correction SDC %d not below baseline %d", corHot.Result.SDCRuns, baseline.Result.SDCRuns)
	}
	// Detection converts SDCs into detected terminations.
	if detHot.Result.DetectedRuns == 0 {
		t.Error("detection campaign recorded no detected runs")
	}
	// Correction repairs rather than terminates.
	if corHot.Result.DetectedRuns != 0 {
		t.Errorf("correction campaign recorded %d detected runs, want 0", corHot.Result.DetectedRuns)
	}
	drop := SDCDropPercent(cells, map[string]int{"P-BICG": 2})
	if drop <= 0 {
		t.Errorf("SDC drop %.1f%%, want positive", drop)
	}
	t.Logf("P-BICG SDC drop at hot protection: %.1f%%", drop)
}

func TestAblations(t *testing.T) {
	s := testSuite(t)
	lazy, err := AblationLazyCompare(s, "P-BICG")
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Ratio() < 1 {
		t.Errorf("eager comparison (%.4f×) faster than lazy", lazy.Ratio())
	}
	sched, err := AblationScheduler(s, "P-BICG")
	if err != nil {
		t.Fatal(err)
	}
	if sched.BaselineCycles == 0 || sched.VariantCycles == 0 {
		t.Error("scheduler ablation produced zero cycles")
	}
	place, err := AblationPlacement(s, "P-BICG")
	if err != nil {
		t.Fatal(err)
	}
	if place.BaselineCycles == 0 {
		t.Error("placement ablation produced zero cycles")
	}
	buf, err := AblationCompareBuffer(s, "P-BICG", []int{1, 32})
	if err != nil {
		t.Fatal(err)
	}
	if buf[1] < buf[32] {
		t.Errorf("1-entry compare buffer (%d cycles) faster than 32-entry (%d)", buf[1], buf[32])
	}
}

// TestAblationsNeedProtection: every ablation compares two designs of a
// protection scheme, so on P-GRAMSCHM, whose one object is writable and
// cannot be replicated, each returns the same error instead of timing (or
// dereferencing) a plan that does not exist.
func TestAblationsNeedProtection(t *testing.T) {
	s := testSuite(t)
	const want = "experiments: P-GRAMSCHM has nothing to protect"
	ablations := map[string]func() error{
		"lazy":      func() error { _, err := AblationLazyCompare(s, "P-GRAMSCHM"); return err },
		"scheduler": func() error { _, err := AblationScheduler(s, "P-GRAMSCHM"); return err },
		"placement": func() error { _, err := AblationPlacement(s, "P-GRAMSCHM"); return err },
		"buffer":    func() error { _, err := AblationCompareBuffer(s, "P-GRAMSCHM", []int{1, 32}); return err },
	}
	for name, run := range ablations {
		if err := run(); err == nil || err.Error() != want {
			t.Errorf("%s ablation: err = %v, want %q", name, err, want)
		}
	}
}

// TestOneCheckpointPerConfiguration: a protection configuration has one
// checkpoint however it is named — by a level, by the level's object list,
// or by a level that adds only writable objects — and a configuration that
// protects nothing is the baseline's.
func TestOneCheckpointPerConfiguration(t *testing.T) {
	s := testSuite(t)
	checkpoint := func(name string, scheme core.Scheme, level int) *Checkpoint {
		t.Helper()
		cp, err := s.Checkpoint(name, scheme, level)
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	for _, scheme := range protectingSchemes {
		if l4, l5 := checkpoint("A-SRAD", scheme, 4), checkpoint("A-SRAD", scheme, 5); l4 != l5 {
			t.Errorf("A-SRAD %v: level 5 (adds the writable Image) has its own checkpoint", scheme)
		}
	}
	app, err := s.App("P-BICG")
	if err != nil {
		t.Fatal(err)
	}
	var hot []string
	for _, o := range app.HotObjects() {
		hot = append(hot, o.Name)
	}
	byObjects, err := s.CheckpointForObjects("P-BICG", core.Detection, hot)
	if err != nil {
		t.Fatal(err)
	}
	if byObjects != checkpoint("P-BICG", core.Detection, app.HotCount) {
		t.Errorf("P-BICG detection over %v and at level %d are different checkpoints", hot, app.HotCount)
	}
	baseline := checkpoint("P-BICG", core.None, 0)
	if checkpoint("P-BICG", core.Detection, 0) != baseline {
		t.Error("detection at level 0 is not the baseline checkpoint")
	}
	if checkpoint("P-GRAMSCHM", core.Correction, 1) != checkpoint("P-GRAMSCHM", core.None, 0) {
		t.Error("P-GRAMSCHM correction over its writable matrix is not the baseline checkpoint")
	}
	if baseline.Plan != nil {
		t.Error("the baseline checkpoint has a plan")
	}
}

func TestTables(t *testing.T) {
	s := testSuite(t)
	t1 := Table1Config(arch.Default())
	if len(t1) != 6 {
		t.Fatalf("Table1 rows = %d, want 6", len(t1))
	}
	t2, err := Table2ErrorMetrics(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2) != 8 {
		t.Fatalf("Table2 rows = %d, want 8", len(t2))
	}
	for _, r := range t2 {
		if r.OutputFormat == "" {
			t.Errorf("%s: empty output format", r.App)
		}
	}
	rendered := RenderTable([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if rendered == "" {
		t.Error("empty rendering")
	}
}

func TestPlanForLevels(t *testing.T) {
	s := testSuite(t)
	app, plan, err := s.PlanFor("P-BICG", core.Detection, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		t.Error("level 0 returned a plan")
	}
	if app == nil {
		t.Fatal("no app")
	}
	_, plan, err = s.PlanFor("P-BICG", core.Correction, 99)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ProtectedObjects() != 3 {
		t.Errorf("overlarge level protected %d objects, want clamped 3", plan.ProtectedObjects())
	}
	// P-GRAMSCHM has only a writable object: no plan at any level.
	_, plan, err = s.PlanFor("P-GRAMSCHM", core.Detection, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		t.Error("writable-only app produced a plan")
	}
}

func TestScaleSpecs(t *testing.T) {
	for _, s := range []Scale{ScaleSmall, ScaleMedium, ScaleLarge} {
		if s.String() == "" {
			t.Errorf("scale %d has empty name", s)
		}
	}
	// Medium-scale apps build with larger footprints and keep their hot
	// pattern (checked on the cheapest app to keep the test fast).
	sm, err := NewSuite(SuiteConfig{NNTrainSamples: 60})
	if err != nil {
		t.Fatal(err)
	}
	md, err := NewSuite(SuiteConfig{NNTrainSamples: 60, Scale: ScaleMedium})
	if err != nil {
		t.Fatal(err)
	}
	small, err := sm.App("P-BICG")
	if err != nil {
		t.Fatal(err)
	}
	medium, err := md.App("P-BICG")
	if err != nil {
		t.Fatal(err)
	}
	if medium.Mem.Size() <= small.Mem.Size() {
		t.Errorf("medium footprint %d not above small %d", medium.Mem.Size(), small.Mem.Size())
	}
	mp, err := md.Profile("P-BICG")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sm.Profile("P-BICG")
	if err != nil {
		t.Fatal(err)
	}
	if !mp.HasHotPattern() {
		t.Error("medium-scale P-BICG lost its hot pattern")
	}
	// The knee sharpens with scale (≈N/33 for P-BICG).
	if mp.MaxMinRatio() <= sp.MaxMinRatio() {
		t.Errorf("medium knee %.1f not sharper than small %.1f", mp.MaxMinRatio(), sp.MaxMinRatio())
	}
}

func TestCSVExport(t *testing.T) {
	s := testSuite(t)
	dir := t.TempDir()
	if err := ExportFig2CSV(dir); err != nil {
		t.Fatal(err)
	}
	f3, err := Fig3AccessProfiles(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := ExportFig3CSV(dir, f3); err != nil {
		t.Fatal(err)
	}
	f4, err := Fig4WarpSharing(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := ExportFig4CSV(dir, f4); err != nil {
		t.Fatal(err)
	}
	t3, err := Table3DataObjects(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := ExportTable3CSV(dir, t3); err != nil {
		t.Fatal(err)
	}
	if err := ExportFig6CSV(dir, []Fig6Cell{{App: "X", Space: "hot"}}); err != nil {
		t.Fatal(err)
	}
	if err := ExportFig7CSV(dir, []Fig7Point{{App: "X"}}); err != nil {
		t.Fatal(err)
	}
	if err := ExportFig9CSV(dir, []Fig9Cell{{App: "X", Scheme: core.None}}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"fig2_l2_trend.csv", "fig3_access_profiles.csv", "fig4_warp_sharing.csv",
		"table3_data_objects.csv", "fig6_hot_vs_rest.csv", "fig7_overhead.csv",
		"fig9_resilience.csv",
	} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s missing: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("empty series rendered %q", got)
	}
	s := Sparkline([]float64{0, 0.5, 1})
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline %q has wrong length", s)
	}
	if []rune(s)[0] == []rune(s)[2] {
		t.Error("min and max render identically")
	}
	// All-zero series must not divide by zero.
	if z := Sparkline([]float64{0, 0}); len([]rune(z)) != 2 {
		t.Error("zero series broken")
	}
}

// TestParseScale: ParseScale inverts Scale.String for all three scales
// and rejects anything else with an error that names them.
func TestParseScale(t *testing.T) {
	for _, sc := range []Scale{ScaleSmall, ScaleMedium, ScaleLarge} {
		got, err := ParseScale(sc.String())
		if err != nil || got != sc {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", sc.String(), got, err, sc)
		}
	}
	for _, name := range []string{"", "Small", "huge", "small "} {
		_, err := ParseScale(name)
		if err == nil {
			t.Errorf("ParseScale(%q) accepted", name)
			continue
		}
		for _, want := range []string{"small", "medium", "large"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ParseScale(%q) error %q does not name %s", name, err, want)
			}
		}
	}
}

// TestTraceAppMatchesSimulate: a traced replay returns the stats of the
// untraced one for the same configuration, scheduler included, and records
// a timeline.
func TestTraceAppMatchesSimulate(t *testing.T) {
	s := testSuite(t)
	for _, cfg := range []SimConfig{
		{App: "P-BICG", Scheme: core.None},
		{App: "P-BICG", Scheme: core.Detection, Level: 1, Policy: timing.LRR},
	} {
		want, err := Simulate(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, got, err := TraceApp(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: TraceApp stats differ from Simulate's", cfg)
		}
		if tr.Len() == 0 {
			t.Errorf("%+v: empty trace", cfg)
		}
	}
}
