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
		blocks, err := s.SpaceBlocks(app, "hot")
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

// oracleRun classifies one run the slow, obviously correct way every fast
// path is checked against: a deep mem.Clone of the prepared image,
// fault.Inject, then ClassifyRun — or the injection-time verdict, when the
// model settles the run at injection. env carries the store-commit
// timeline for models that consult it (nil for those that do not).
func oracleRun(cp *Checkpoint, golden []float32, env *fault.Env, rng *rand.Rand, model fault.Model, sel fault.Selector) (fault.Outcome, error) {
	clone := cp.App.Mem.Clone()
	inj, err := fault.Inject(clone, rng, model, sel, env)
	if err != nil {
		return 0, err
	}
	if inj.Pre != 0 {
		return inj.Pre, nil
	}
	return ClassifyRun(cp.App, clone, cp.Plan, golden)
}

// oracleOutcomes runs every run of c serially through oracleRun, with no
// store in between, and returns the verdict vector.
func oracleOutcomes(t testing.TB, cp *Checkpoint, c fault.Campaign, model fault.Model, sel fault.Selector) []fault.Outcome {
	t.Helper()
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
	oracle := fault.Campaign{Runs: c.Runs, Seed: c.Seed, Workers: 1}
	if _, err := oracle.Execute(func(i int, rng *rand.Rand) (fault.Outcome, error) {
		o, err := oracleRun(cp, golden, &env, rng, model, sel)
		want[i] = o
		return o, err
	}); err != nil {
		t.Fatal(err)
	}
	return want
}

// forEachShard splits [0, runs) into contiguous shards of at most width
// runs — a shard of up to mem.BatchLanes runs is exactly one claim — and
// hands them to fn on workers concurrent goroutines. Any error fails the
// test.
func forEachShard(t testing.TB, runs, width, workers int, fn func(start, end int) error) {
	t.Helper()
	errs := make([]error, (runs+width-1)/width)
	sem := make(chan struct{}, workers) // bounds the shards in flight
	var wg sync.WaitGroup
	for i := range errs {
		start, end := i*width, min((i+1)*width, runs)
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			errs[i] = fn(start, end)
			<-sem
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// shardedCampaign runs c through cp.CampaignRange in shards of at most
// width runs on workers concurrent goroutines and merges the shard results.
func shardedCampaign(t testing.TB, cp *Checkpoint, c fault.Campaign, width, workers int, model fault.Model, sel fault.Selector) fault.Result {
	t.Helper()
	var (
		mu     sync.Mutex
		merged fault.Result
	)
	forEachShard(t, c.Runs, width, workers, func(start, end int) error {
		res, err := cp.CampaignRange(c, start, end, model, sel)
		if err != nil {
			return err
		}
		mu.Lock()
		merged.Add(res)
		mu.Unlock()
		return nil
	})
	return merged
}

// perRunOutcomes collects each run's verdict (not just the aggregate
// counts) through the batched executor, in shards of at most width runs
// on workers concurrent goroutines.
func perRunOutcomes(t testing.TB, cp *Checkpoint, c fault.Campaign, width, workers int, model fault.Model, sel fault.Selector) []fault.Outcome {
	t.Helper()
	outs := make([]fault.Outcome, c.Runs)
	forEachShard(t, c.Runs, width, workers, func(start, end int) error {
		_, err := c.ExecuteRangeBatched(start, end, func(lo int, rngs []*rand.Rand) ([]fault.Outcome, error) {
			os, err := cp.RunBatch(rngs, model, sel)
			if err == nil {
				copy(outs[lo:], os) // claims never overlap
			}
			return os, err
		})
		return err
	})
	return outs
}

// TestBatchedRunOutcomeParity is the batched path's run-granular property
// test: under randomized campaign shapes (seed, shard width, concurrent
// shards), every case must produce the exact per-run verdict vector of the
// clone-per-run oracle — not merely equal aggregate counts. Three cheap
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
		width, workers int
	}
	var cases []parityCase
	add := func(app string, scheme core.Scheme, spec, selKind string, minRuns, spread int) {
		cases = append(cases, parityCase{
			app: app, scheme: scheme, spec: spec, selKind: selKind,
			runs:    minRuns + prng.Intn(spread),
			seed:    prng.Int63(),
			width:   []int{2, 3, 5, 8, 64}[prng.Intn(5)],
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
			c := fault.Campaign{Runs: pc.runs, Seed: pc.seed, Workers: 1}
			want := oracleOutcomes(t, cp, c, model, sel)
			got := perRunOutcomes(t, cp, c, pc.width, pc.workers, model, sel)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s L%d seed=%d width=%d workers=%d: run %d = %v, clone-per-run oracle says %v",
						pc.spec, level, pc.seed, pc.width, pc.workers, i, got[i], want[i])
				}
			}
		})
	}
}

// TestBatchedFallbackParity pins RunBatch's no-capture fallback, the path
// an application takes when its recording exceeds maxCaptureBytes (C-NN
// and A-SRAD at the medium scale): every lane executes in full, and its
// per-run verdicts must equal the clone-per-run oracle's. Each
// checkpoint's capture is made unavailable before its first claim by
// consuming captureOnce, so no warp is replayed or reproduced from a
// recording.
func TestBatchedFallbackParity(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := NewSuite(SuiteConfig{NNTrainSamples: 60, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("cases", func(t *testing.T) {
		for _, app := range []string{"C-NN", "A-SRAD"} {
			for _, scheme := range []core.Scheme{core.None, core.Detection, core.Correction} {
				for _, spec := range []string{"stuck-at:bits=3,blocks=2", "transient:flips=3"} {
					app, scheme, spec := app, scheme, spec
					name := fmt.Sprintf("%s_%v_%s", app, scheme, strings.SplitN(spec, ":", 2)[0])
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						model, err := fault.ParseModel(spec)
						if err != nil {
							t.Fatal(err)
						}
						base, err := s.App(app)
						if err != nil {
							t.Fatal(err)
						}
						level := 0
						if scheme != core.None {
							level = base.HotCount
						}
						cp, err := s.Checkpoint(app, scheme, level)
						if err != nil {
							t.Fatal(err)
						}
						cp.captureOnce.Do(func() {}) // the capture stays nil
						sel := campaignSelector(t, s, cp, app, "hot")
						c := fault.Campaign{Runs: 6, Seed: 20261018, Workers: 1}
						want := oracleOutcomes(t, cp, c, model, sel)
						got := perRunOutcomes(t, cp, c, 4, 2, model, sel)
						for i := range want {
							if got[i] != want[i] {
								t.Errorf("%s L%d: run %d = %v, clone-per-run oracle says %v", spec, level, i, got[i], want[i])
							}
						}
					})
				}
			}
		}
	})
	snap := reg.Snapshot()
	if got := counterValue(snap, "dcrm_campaign_batch_fallback_runs_total"); got == 0 {
		t.Error("no run took the fallback path")
	}
	for _, name := range []string{"dcrm_campaign_replayed_warps_total", "dcrm_campaign_applied_warps_total"} {
		if got := counterValue(snap, name); got != 0 {
			t.Errorf("%s = %v without a capture, want 0", name, got)
		}
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
	// Shards of 8 runs on two goroutines: several claims, two in flight.
	res := shardedCampaign(t, cp, s.campaign(runs, 99), 8, 2, fault.StuckAt{BitsPerWord: 3, Blocks: 1}, sel)
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
