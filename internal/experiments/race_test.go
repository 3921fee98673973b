package experiments

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
)

// TestCampaignRaceClean exercises the full clone→inject→run→classify path
// (the clone-per-run oracle) with multiple workers under the race detector.
func TestCampaignRaceClean(t *testing.T) {
	s := testSuite(t)
	cp, err := s.Checkpoint("P-BICG", core.Detection, 2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.App("P-BICG")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := base.GoldenRun()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := MissWeightedSelector(cp.App, cp.Plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := fault.Campaign{Runs: 24, Seed: 3, Workers: 8}
	if _, err := c.Execute(func(_ int, rng *rand.Rand) (fault.Outcome, error) {
		return oracleRun(cp, golden, nil, rng, fault.StuckAt{BitsPerWord: 3, Blocks: 5}, sel)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSuiteMemoRace is the regression test for the formerly unsynchronized
// Suite memo maps: 8 goroutines hammer App/Profile/Traces/PlanFor, and a
// golden run on each shared base instance, over the same applications
// under the race detector. Before the memos
// were once-guarded this was a guaranteed map race for any concurrent
// caller.
func TestSuiteMemoRace(t *testing.T) {
	s, err := NewSuite(SuiteConfig{NNTrainSamples: 60})
	if err != nil {
		t.Fatal(err)
	}
	apps := []string{"P-BICG", "P-MVT", "A-Laplacian"}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	record := func(err error) {
		if err == nil {
			return
		}
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Rotate the app order per goroutine so different keys race on
			// the memo lock, not just the same entry's once.
			for k := 0; k < len(apps); k++ {
				name := apps[(g+k)%len(apps)]
				a, err := s.App(name)
				record(err)
				_, err = s.Profile(name)
				record(err)
				if a != nil {
					_, err = a.GoldenRun()
					record(err)
				}
				_, err = s.Traces(name)
				record(err)
				_, _, err = s.PlanFor(name, core.Detection, 2)
				record(err)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		t.Fatal(err)
	}
	// The memos must have converged on one artifact per app.
	p1, _ := s.Profile("P-BICG")
	p2, _ := s.Profile("P-BICG")
	if p1 != p2 {
		t.Fatal("Profile returned two distinct memoized artifacts")
	}
}

// TestExperimentFanOutRace drives the suite-level worker pool through the
// profile-backed experiments with more workers than tasks, under -race.
func TestExperimentFanOutRace(t *testing.T) {
	s, err := NewSuite(SuiteConfig{NNTrainSamples: 60, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, fn := range []func() error{
		func() error { _, err := Fig3AccessProfiles(s, 20); return err },
		func() error { _, err := Fig4WarpSharing(s, 20); return err },
		func() error { _, err := Table3DataObjects(s); return err },
	} {
		wg.Add(1)
		go func(fn func() error) {
			defer wg.Done()
			if err := fn(); err != nil {
				t.Error(err)
			}
		}(fn)
	}
	wg.Wait()
}

// TestFig7ParallelRace exercises concurrent timing replays over shared
// traces (the Fig. 7 fan-out) under the race detector.
func TestFig7ParallelRace(t *testing.T) {
	s, err := NewSuite(SuiteConfig{NNTrainSamples: 60, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fig7Overhead(s, Fig7Config{Apps: []string{"P-BICG", "P-MVT"}}); err != nil {
		t.Fatal(err)
	}
}
