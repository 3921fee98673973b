package dcrm

import (
	"testing"
)

// sharedLib caches one library across the package's tests.
var testLib *Library

func lib(t *testing.T) *Library {
	t.Helper()
	if testLib == nil {
		l, err := New(WithFastNN(), WithSeed(1))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		testLib = l
	}
	return testLib
}

func TestApplicationsListed(t *testing.T) {
	l := lib(t)
	apps := l.Applications()
	if len(apps) != 10 {
		t.Fatalf("Applications() = %d, want 10", len(apps))
	}
	if got := len(l.EvaluatedApplications()); got != 8 {
		t.Fatalf("EvaluatedApplications() = %d, want 8", got)
	}
	if _, err := l.Workload("no-such-app"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWorkloadProfile(t *testing.T) {
	w, err := lib(t).Workload("P-BICG")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "P-BICG" || w.HotObjectCount() != 2 {
		t.Fatalf("workload meta wrong: %s/%d", w.Name(), w.HotObjectCount())
	}
	rep, err := w.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HotPattern {
		t.Error("P-BICG should show the hot pattern")
	}
	if len(rep.Objects) != 3 {
		t.Fatalf("objects = %d, want 3", len(rep.Objects))
	}
	hot := 0
	for _, o := range rep.Objects {
		if o.Hot {
			hot++
			if !o.ReadOnly {
				t.Errorf("hot object %s not read-only", o.Name)
			}
		}
	}
	if hot != 2 {
		t.Errorf("hot objects = %d, want 2", hot)
	}
	if rep.HotSizePercent <= 0 || rep.HotSizePercent > 5 {
		t.Errorf("hot size %% = %v", rep.HotSizePercent)
	}
}

func TestCampaignSchemes(t *testing.T) {
	w, err := lib(t).Workload("P-BICG")
	if err != nil {
		t.Fatal(err)
	}
	base, err := w.Campaign(CampaignConfig{
		Runs:   60,
		Faults: FaultModel{Bits: 3, Blocks: 5},
		Target: TargetHot,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.SDC == 0 {
		t.Fatal("baseline hot-targeted campaign produced no SDCs")
	}
	det, err := w.Campaign(CampaignConfig{
		Scheme: Detection,
		Runs:   60,
		Faults: FaultModel{Bits: 3, Blocks: 5},
		Target: TargetHot,
	})
	if err != nil {
		t.Fatal(err)
	}
	if det.SDC >= base.SDC {
		t.Errorf("detection SDC %d not below baseline %d", det.SDC, base.SDC)
	}
	if det.Detected == 0 {
		t.Error("detection campaign recorded no terminations")
	}
	cor, err := w.Campaign(CampaignConfig{
		Scheme: Correction,
		Runs:   60,
		Faults: FaultModel{Bits: 3, Blocks: 5},
		Target: TargetHot,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cor.SDC >= base.SDC {
		t.Errorf("correction SDC %d not below baseline %d", cor.SDC, base.SDC)
	}
	if cor.Detected != 0 {
		t.Errorf("correction terminated %d runs; it should repair", cor.Detected)
	}
	if got := base.Runs; got != 60 {
		t.Errorf("runs = %d", got)
	}
}

func TestCampaignValidation(t *testing.T) {
	w, err := lib(t).Workload("P-MVT")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Campaign(CampaignConfig{Faults: FaultModel{Bits: 99, Blocks: 1}, Runs: 1}); err == nil {
		t.Error("invalid fault model accepted")
	}
	if _, err := w.Campaign(CampaignConfig{Target: Target(99), Runs: 1}); err == nil {
		t.Error("invalid target accepted")
	}
}

// TestCampaignFaultModelDefaults: each zero field of the fault model takes
// its documented default on its own, so a partly set model keeps the field
// the caller did set.
func TestCampaignFaultModelDefaults(t *testing.T) {
	w, err := lib(t).Workload("P-BICG")
	if err != nil {
		t.Fatal(err)
	}
	run := func(m FaultModel) CampaignResult {
		t.Helper()
		res, err := w.Campaign(CampaignConfig{Runs: 60, Seed: 3, Faults: m, Target: TargetHot})
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		return res
	}
	if got, want := run(FaultModel{Blocks: 5}), run(FaultModel{Bits: 2, Blocks: 5}); got != want {
		t.Errorf("FaultModel{Blocks: 5} = %+v, want the 2-bit/5-block campaign %+v", got, want)
	}
	if run(FaultModel{Bits: 2, Blocks: 5}) == run(FaultModel{Bits: 2, Blocks: 1}) {
		t.Fatal("5-block and 1-block campaigns agree: the case cannot tell a dropped Blocks field")
	}
	if got, want := run(FaultModel{Bits: 3}), run(FaultModel{Bits: 3, Blocks: 1}); got != want {
		t.Errorf("FaultModel{Bits: 3} = %+v, want the 3-bit/1-block campaign %+v", got, want)
	}
}

func TestPerformance(t *testing.T) {
	w, err := lib(t).Workload("P-BICG")
	if err != nil {
		t.Fatal(err)
	}
	base, err := w.Performance(Baseline, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles == 0 || base.NormalizedTime != 1 {
		t.Fatalf("baseline perf wrong: %+v", base)
	}
	det, err := w.Performance(Detection, w.HotObjectCount())
	if err != nil {
		t.Fatal(err)
	}
	if det.NormalizedTime < 1 || det.NormalizedTime > 1.2 {
		t.Errorf("hot detection overhead = %.4f, want small and ≥1", det.NormalizedTime)
	}
	if det.ReplicaBytes == 0 {
		t.Error("no replica bytes reported")
	}
	cor, err := w.Performance(Correction, 3) // every object
	if err != nil {
		t.Fatal(err)
	}
	if cor.NormalizedTime <= det.NormalizedTime {
		t.Errorf("full correction (%.3f) not above hot detection (%.3f)",
			cor.NormalizedTime, det.NormalizedTime)
	}
}

func TestSchemeStrings(t *testing.T) {
	if Baseline.String() != "baseline" || Detection.String() != "detection" ||
		Correction.String() != "detection+correction" {
		t.Error("scheme strings wrong")
	}
}

func TestAutoHotObjects(t *testing.T) {
	w, err := lib(t).Workload("P-BICG")
	if err != nil {
		t.Fatal(err)
	}
	auto, err := w.AutoHotObjects()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"p": true, "r": true}
	if len(auto) != 2 || !want[auto[0]] || !want[auto[1]] {
		t.Fatalf("AutoHotObjects = %v, want p and r", auto)
	}
	// The identified set drives campaigns and performance directly.
	res, err := w.Campaign(CampaignConfig{
		Scheme:  Correction,
		Objects: auto,
		Faults:  FaultModel{Bits: 3, Blocks: 5},
		Runs:    40,
		Target:  TargetHot,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SDC != 0 {
		t.Errorf("auto-protected campaign SDC = %d, want 0", res.SDC)
	}
	perf, err := w.PerformanceObjects(Correction, auto)
	if err != nil {
		t.Fatal(err)
	}
	if perf.NormalizedTime < 1 || perf.NormalizedTime > 1.1 {
		t.Errorf("auto-protection overhead = %.4f", perf.NormalizedTime)
	}
	if perf.ReplicaBytes == 0 {
		t.Error("no replica bytes reported")
	}
}

func TestAutoHotObjectsEmptyForFlatProfile(t *testing.T) {
	w, err := lib(t).Workload("C-BlackScholes")
	if err != nil {
		t.Fatal(err)
	}
	auto, err := w.AutoHotObjects()
	if err != nil {
		t.Fatal(err)
	}
	if len(auto) != 0 {
		t.Errorf("flat-profile app identified hot objects: %v", auto)
	}
}

func TestCampaignUnknownObjectRejected(t *testing.T) {
	w, err := lib(t).Workload("P-BICG")
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.Campaign(CampaignConfig{
		Scheme:  Detection,
		Objects: []string{"no-such-object"},
		Runs:    1,
	})
	if err == nil {
		t.Error("unknown object name accepted")
	}
}
