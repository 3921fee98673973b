package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
)

// differentialApps are the applications the differential fuzzer draws
// from: the ones whose runs take milliseconds, plus C-NN, whose hot-set
// campaigns dominate the batched path's work.
var differentialApps = []string{"P-BICG", "P-GESUMMV", "P-MVT", "A-Sobel", "A-Laplacian", "A-Meanfilter", "C-NN"}

// FuzzCampaignDifferential checks the batched campaign path against the
// one slow, obviously correct reference: for a fuzz-chosen application,
// scheme, selector, fault model, seed, run count, batch size and worker
// count, the batched per-run verdict vector must equal the clone-per-run
// oracle's — a deep mem.Clone of the prepared image per run, fault.Inject,
// and ClassifyRun, run serially with no store in between.
func FuzzCampaignDifferential(f *testing.F) {
	// The seed corpus lives in testdata/fuzz/FuzzCampaignDifferential.
	f.Fuzz(func(t *testing.T, app, scheme, selKind, family, p1, p2 uint8, seed int64, runs, batch, workers uint8) {
		name := differentialApps[int(app)%len(differentialApps)]
		sch := []core.Scheme{core.None, core.Detection, core.Correction}[scheme%3]
		kind := selectorKinds[int(selKind)%len(selectorKinds)]
		var spec string
		switch family % 3 {
		case 0:
			spec = fmt.Sprintf("stuck-at:bits=%d,blocks=%d", 1+p1%32, 1+p2%4)
		case 1:
			spec = fmt.Sprintf("transient:flips=%d,blocks=%d", 1+p1%32, 1+p2%4)
		default:
			spec = fmt.Sprintf("burst:width=%d,words=%d", 1+p1%32, 1+p2%32)
		}
		model, err := fault.ParseModel(spec)
		if err != nil {
			t.Fatalf("ParseModel(%q): %v", spec, err)
		}
		c := fault.Campaign{Runs: 1 + int(runs%16), Seed: seed, Batch: 1 + int(batch%64), Workers: 1 + int(workers%4)}

		s := testSuite(t)
		base, err := s.App(name)
		if err != nil {
			t.Fatal(err)
		}
		level := 0
		if sch != core.None {
			level = base.HotCount
		}
		cp, err := s.Checkpoint(name, sch, level)
		if err != nil {
			t.Fatal(err)
		}
		sel := campaignSelector(t, s, cp, name, kind)
		golden, err := cp.Golden()
		if err != nil {
			t.Fatal(err)
		}
		var env fault.Env
		if fault.NeedsTimeline(model) {
			if env.Timeline, err = cp.Timeline(); err != nil {
				t.Fatal(err)
			}
		}

		want := make([]fault.Outcome, c.Runs)
		oracle := fault.Campaign{Runs: c.Runs, Seed: c.Seed, Workers: 1, Batch: 1}
		if _, err := oracle.ExecuteRange(0, c.Runs, func(i int, rng *rand.Rand) (fault.Outcome, error) {
			clone := cp.App.Mem.Clone()
			inj, err := fault.Inject(clone, rng, model, sel, &env)
			if err != nil {
				return 0, err
			}
			if inj.Pre != 0 {
				want[i] = inj.Pre
			} else if want[i], err = ClassifyRun(cp.App, clone, cp.Plan, golden); err != nil {
				return 0, err
			}
			return want[i], nil
		}); err != nil {
			t.Fatal(err)
		}

		got := perRunOutcomes(t, cp, c, model, sel, true)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %v %s %s seed=%d runs=%d batch=%d workers=%d: run %d = %v, clone-per-run oracle says %v",
					name, sch, spec, kind, c.Seed, c.Runs, c.Batch, c.Workers, i, got[i], want[i])
			}
		}
	})
}
