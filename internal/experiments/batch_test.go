package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// wholeImageSelector targets every block of the checkpoint's image —
// inputs, outputs, padding, and replicas.
func wholeImageSelector(t testing.TB, cp *Checkpoint) fault.Selector {
	t.Helper()
	blocks := make([]arch.BlockAddr, cp.App.Mem.TotalBlocks())
	for i := range blocks {
		blocks[i] = arch.BlockAddr(i)
	}
	sel, err := fault.NewSetSelector(blocks)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// selectorKinds are the block populations campaigns draw from: the hot
// objects' blocks (Fig. 6), the whole image, and the L1-miss-weighted
// address space (Fig. 9).
var selectorKinds = []string{"hot", "whole", "miss"}

// campaignSelector builds the selectorKinds selector of the given kind for
// one application's checkpoint.
func campaignSelector(t testing.TB, s *Suite, cp *Checkpoint, app, kind string) fault.Selector {
	t.Helper()
	switch kind {
	case "hot":
		blocks, err := s.spaceBlocks(app, "hot")
		if err != nil {
			t.Fatal(err)
		}
		sel, err := fault.NewSetSelector(blocks)
		if err != nil {
			t.Fatal(err)
		}
		return sel
	case "whole":
		return wholeImageSelector(t, cp)
	case "miss":
		sel, err := cp.MissSelector()
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	t.Fatalf("unknown selector kind %q", kind)
	return nil
}

// perRunOutcomes collects each run's verdict (not just the aggregate
// counts) through the real executor, on the per-run or the batched path.
func perRunOutcomes(t *testing.T, cp *Checkpoint, c fault.Campaign, model fault.Model, sel fault.Selector, batched bool) []fault.Outcome {
	t.Helper()
	outs := make([]fault.Outcome, c.Runs)
	var err error
	if batched {
		var mu sync.Mutex
		_, err = c.ExecuteRangeBatched(0, c.Runs, func(lo int, rngs []*rand.Rand) ([]fault.Outcome, error) {
			os, err := cp.RunBatch(lo, rngs, model, sel)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			copy(outs[lo:], os)
			mu.Unlock()
			return os, nil
		})
	} else {
		_, err = c.ExecuteRange(0, c.Runs, func(i int, rng *rand.Rand) (fault.Outcome, error) {
			o, err := cp.RunOne(rng, model, sel)
			if err != nil {
				return 0, err
			}
			outs[i] = o
			return o, nil
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// TestBatchedRunOutcomeParity is the batched path's run-granular property
// test: under randomized campaign shapes (seed, batch size, worker count),
// every case must produce the exact per-run verdict vector the per-run
// path produces — not merely equal aggregate counts. Three cheap
// applications cover every fault-model family × scheme over the whole
// image. C-NN, A-SRAD and A-Meanfilter add the hot-set and miss-weighted
// selectors: hot-set faults are where value convergence and the
// correction vote decide which warps execute, miss-weighted ones where
// most warps are reproduced from the recording. Run under -race in CI via
// the batched-parity gate.
func TestBatchedRunOutcomeParity(t *testing.T) {
	s := testSuite(t)
	prng := rand.New(rand.NewSource(20260808))
	type parityCase struct {
		app            string
		scheme         core.Scheme
		spec, selKind  string
		runs           int
		seed           int64
		batch, workers int
	}
	var cases []parityCase
	add := func(app string, scheme core.Scheme, spec, selKind string, minRuns, spread int) {
		cases = append(cases, parityCase{
			app: app, scheme: scheme, spec: spec, selKind: selKind,
			runs:    minRuns + prng.Intn(spread),
			seed:    prng.Int63(),
			batch:   []int{2, 3, 5, 8, 64}[prng.Intn(5)],
			workers: 1 + prng.Intn(3),
		})
	}
	models := []string{
		"stuck-at:bits=3,blocks=2",
		"transient:flips=2",
		"burst",
	}
	schemes := []core.Scheme{core.None, core.Detection, core.Correction}
	for _, app := range []string{"P-BICG", "P-GESUMMV", "A-Sobel"} {
		for _, scheme := range schemes {
			for _, spec := range models {
				add(app, scheme, spec, "whole", 8, 12)
			}
		}
	}
	for si, scheme := range schemes {
		for mi, spec := range models {
			add("A-Meanfilter", scheme, spec, []string{"hot", "miss"}[(si+mi)%2], 8, 12)
		}
	}
	// The heavy applications get few runs, and they run first so that the
	// parallel cases do not end on one long tail.
	light := len(cases)
	add("A-SRAD", core.Detection, models[0], "miss", 3, 3)
	add("C-NN", core.None, models[0], "hot", 3, 2)
	add("C-NN", core.Correction, models[0], "hot", 3, 2)
	cases = append(append([]parityCase(nil), cases[light:]...), cases[:light]...)

	for _, pc := range cases {
		pc := pc
		name := fmt.Sprintf("%s_%v_%s_%s", pc.app, pc.scheme, strings.SplitN(pc.spec, ":", 2)[0], pc.selKind)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			model, err := fault.ParseModel(pc.spec)
			if err != nil {
				t.Fatal(err)
			}
			base, err := s.App(pc.app)
			if err != nil {
				t.Fatal(err)
			}
			level := 0
			if pc.scheme != core.None {
				level = base.HotCount
			}
			cp, err := s.Checkpoint(pc.app, pc.scheme, level)
			if err != nil {
				t.Fatal(err)
			}
			sel := campaignSelector(t, s, cp, pc.app, pc.selKind)
			c := fault.Campaign{Runs: pc.runs, Seed: pc.seed, Workers: pc.workers, Batch: pc.batch}
			want := perRunOutcomes(t, cp, c, model, sel, false)
			got := perRunOutcomes(t, cp, c, model, sel, true)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s L%d seed=%d batch=%d workers=%d: run %d = %v, per-run path says %v",
						pc.spec, level, pc.seed, pc.batch, pc.workers, i, got[i], want[i])
				}
			}
		})
	}
}

// counterValue reads one counter sample, treating an unregistered series
// as zero.
func counterValue(snap telemetry.Snapshot, name string, labels ...telemetry.Label) float64 {
	sample, ok := snap.Get(name, labels...)
	if !ok {
		return 0
	}
	return sample.Value
}

// TestBatchTelemetryReconciliation pins the batched path's observability
// contract: claims, lanes-per-claim observations, and run counts must
// reconcile exactly — batches equals the occupancy histogram's observation
// count, the occupancy sum equals the batch-executed runs, every campaign
// run is accounted for either pre-classified, pruned, or batch-executed,
// and the run-granular dcrm_campaign_runs_total matches the per-outcome
// dcrm_fault_runs_total tallies.
func TestBatchTelemetryReconciliation(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := NewSuite(SuiteConfig{NNTrainSamples: 60, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint("P-BICG", core.None, 0)
	if err != nil {
		t.Fatal(err)
	}
	sel := wholeImageSelector(t, cp)
	const runs = 40
	c := s.campaign(runs, 99, 8)
	c.Workers = 2
	res, err := cp.Campaign(c, fault.StuckAt{BitsPerWord: 3, Blocks: 1}, sel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != runs {
		t.Fatalf("result runs = %d, want %d", res.Runs, runs)
	}

	snap := reg.Snapshot()
	occ, ok := snap.Get("dcrm_campaign_batch_occupancy")
	if !ok {
		t.Fatal("no dcrm_campaign_batch_occupancy sample")
	}
	batches := counterValue(snap, "dcrm_campaign_batches_total")
	batchRuns := counterValue(snap, "dcrm_campaign_batch_runs_total")
	pruned := counterValue(snap, "dcrm_campaign_runs_pruned_total")
	pre := counterValue(snap, "dcrm_campaign_runs_preclassified_total")
	totalRuns := counterValue(snap, "dcrm_campaign_runs_total")

	if batches == 0 {
		t.Fatal("batched campaign executed zero claims")
	}
	if float64(occ.Count) != batches {
		t.Errorf("occupancy observations = %d, batches = %v", occ.Count, batches)
	}
	if occ.Value != batchRuns {
		t.Errorf("occupancy lane sum = %v, batch-executed runs = %v", occ.Value, batchRuns)
	}
	if pre+pruned+batchRuns != totalRuns {
		t.Errorf("pre %v + pruned %v + batch-executed %v != campaign runs %v",
			pre, pruned, batchRuns, totalRuns)
	}
	if totalRuns != float64(runs) {
		t.Errorf("dcrm_campaign_runs_total = %v, campaign ran %d", totalRuns, runs)
	}
	var byOutcome float64
	for _, o := range fault.Outcomes() {
		byOutcome += counterValue(snap, "dcrm_fault_runs_total",
			telemetry.Label{Name: "outcome", Value: o.String()})
	}
	if byOutcome != totalRuns {
		t.Errorf("sum of dcrm_fault_runs_total = %v, dcrm_campaign_runs_total = %v", byOutcome, totalRuns)
	}
}
