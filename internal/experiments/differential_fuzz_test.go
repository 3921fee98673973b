package experiments

import (
	"fmt"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
)

// differentialApps are the applications the differential fuzzer draws
// from: the ones whose runs take milliseconds, plus C-NN, whose hot-set
// campaigns dominate the batched path's work, and A-SRAD, whose faulty
// neighbour indices make executed warps leave the recorded sequence and
// resync.
var differentialApps = []string{"P-BICG", "P-GESUMMV", "P-MVT", "A-Sobel", "A-Laplacian", "A-Meanfilter", "C-NN", "A-SRAD"}

// FuzzCampaignDifferential checks the batched campaign path against the
// one slow, obviously correct reference: for a fuzz-chosen application,
// scheme, selector, fault model, seed, run count, shard width, number of
// concurrent shards and protection level, the batched per-run verdict
// vector must equal the clone-per-run oracle's (oracleRun: a deep
// mem.Clone of the prepared image per run, fault.Inject, and ClassifyRun,
// run serially with no store in between). The run range is split into
// contiguous shards of the fuzzed width, so the target also fuzzes shard
// boundaries; a shard of up to 64 runs is one claim. Every level of an application replays
// against the application's one capture, so the level is fuzzed too: 0
// selects the hot set, other values walk the app's other protected levels.
func FuzzCampaignDifferential(f *testing.F) {
	// The seed corpus lives in testdata/fuzz/FuzzCampaignDifferential.
	f.Fuzz(func(t *testing.T, app, scheme, selKind, family, p1, p2 uint8, seed int64, runs, width, workers, lv uint8) {
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
		c := fault.Campaign{Runs: 1 + int(runs%16), Seed: seed, Workers: 1}
		shardWidth, shardWorkers := 1+int(width%64), 1+int(workers%4)

		s := testSuite(t)
		base, err := s.App(name)
		if err != nil {
			t.Fatal(err)
		}
		level := 0
		if sch != core.None {
			level = base.HotCount
			var others []int
			for _, l := range protectedLevels(base) {
				if l != base.HotCount {
					others = append(others, l)
				}
			}
			if lv > 0 && len(others) > 0 {
				level = others[(int(lv)-1)%len(others)]
			}
		}
		cp, err := s.Checkpoint(name, sch, level)
		if err != nil {
			t.Fatal(err)
		}
		sel := campaignSelector(t, s, cp, name, kind)
		want := oracleOutcomes(t, cp, c, model, sel)
		got := perRunOutcomes(t, cp, c, shardWidth, shardWorkers, model, sel)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %v L%d %s %s seed=%d runs=%d width=%d workers=%d: run %d = %v, clone-per-run oracle says %v",
					name, sch, level, spec, kind, c.Seed, c.Runs, shardWidth, shardWorkers, i, got[i], want[i])
			}
		}
	})
}
