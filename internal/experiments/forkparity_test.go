package experiments

import (
	"math/rand"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
)

// TestCampaignForkParity is the fast-path equivalence contract: for every
// application and scheme, a campaign over the fork + checkpoint path must
// produce bit-identical Results to the clone-per-run oracle — split into
// run ranges one run wide (one-lane claims), eight wide, and at the full
// bit-parallel width (64), run on one goroutine and on sixteen. This also
// serves as the serial-vs-parallel campaign determinism gate (run under
// -race in CI).
func TestCampaignForkParity(t *testing.T) {
	s := testSuite(t)
	const (
		runs = 6
		seed = int64(99)
	)
	// 3 stuck bits per word: about half the injected words escape the
	// inert-fault prune, so both the pruned path and the executed path are
	// exercised in every campaign.
	model := fault.StuckAt{BitsPerWord: 3, Blocks: 1}

	for _, name := range s.AllNames() {
		for _, scheme := range []core.Scheme{core.None, core.Detection, core.Correction} {
			base, err := s.App(name)
			if err != nil {
				t.Fatal(err)
			}
			level := 0
			if scheme != core.None {
				level = base.HotCount
			}
			cp, err := s.Checkpoint(name, scheme, level)
			if err != nil {
				t.Fatal(err)
			}
			// Whole-image selector: input objects, outputs, padding, and (for
			// protected schemes) replicas are all reachable.
			blocks := make([]arch.BlockAddr, cp.App.Mem.TotalBlocks())
			for i := range blocks {
				blocks[i] = arch.BlockAddr(i)
			}
			sel, err := fault.NewSetSelector(blocks)
			if err != nil {
				t.Fatal(err)
			}

			// Oracle: deep clone per run, full output extraction and
			// metric evaluation per run, against the base instance's own
			// golden run rather than the checkpoint's golden artifact.
			golden, err := base.GoldenRun()
			if err != nil {
				t.Fatal(err)
			}
			c := fault.Campaign{Runs: runs, Seed: seed, Workers: 1}
			want, err := c.Execute(func(_ int, rng *rand.Rand) (fault.Outcome, error) {
				return oracleRun(cp, golden, nil, rng, model, sel)
			})
			if err != nil {
				t.Fatal(err)
			}

			for _, workers := range []int{1, 16} {
				for _, width := range []int{1, 8, 64} {
					got := shardedCampaign(t, cp, c, width, workers, model, sel)
					if got != want {
						t.Errorf("%s %v L%d workers=%d width=%d: fork path %+v != clone-per-run oracle %+v",
							name, scheme, level, workers, width, got, want)
					}
				}
			}
		}
	}
}
