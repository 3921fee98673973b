package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/kernels"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
	"github.com/datacentric-gpu/dcrm/internal/timing"
)

// campaignSeed derives a campaign seed from the workload seed. Seed 1 gives
// each figure's own default (Fig. 6: 7, Fig. 9: 11), so the default run
// reproduces cmd/repro's campaigns.
func campaignSeed(seed, base int64) int64 { return base + 1000*(seed-1) }

// campaignWorkers is the per-campaign parallelism the suite gives campaigns
// nested inside its fan-out (GOMAXPROCS / fan-out width, at least 1).
func campaignWorkers(lanes int) int {
	if w := runtime.GOMAXPROCS(0) / lanes; w > 1 {
		return w
	}
	return 1
}

// levels returns the protection levels an app is swept over, as Fig. 7 and
// Fig. 9 do: 0 through its object count, capped by correction's address
// table.
func levels(app *kernels.App) []int {
	max := len(app.Objects)
	if max > core.MaxObjectsCorrection {
		max = core.MaxObjectsCorrection
	}
	out := make([]int, 0, max+1)
	for l := 0; l <= max; l++ {
		out = append(out, l)
	}
	return out
}

// config is one (application, scheme, protection level) configuration.
type config struct {
	app    string
	scheme core.Scheme
	level  int
}

func (c config) String() string { return fmt.Sprintf("%s/%v/L%d", c.app, c.scheme, c.level) }

// sweep lists the Fig. 7 / Fig. 9 configurations in their serial order:
// per app the baseline, then every level of detection, then of correction.
func sweep(s *experiments.Suite, apps []string) ([]config, error) {
	var out []config
	for _, name := range apps {
		app, err := s.App(name)
		if err != nil {
			return nil, err
		}
		out = append(out, config{name, core.None, 0})
		for _, scheme := range []core.Scheme{core.Detection, core.Correction} {
			for _, l := range levels(app)[1:] {
				out = append(out, config{name, scheme, l})
			}
		}
	}
	return out, nil
}

// spaceBlocks returns an application's Fig. 6 injection space: the accessed
// blocks of its hot data objects ("hot") or every other accessed block
// ("rest"), in profile order.
func spaceBlocks(s *experiments.Suite, name string, hot bool) ([]arch.BlockAddr, error) {
	app, err := s.App(name)
	if err != nil {
		return nil, err
	}
	p, err := s.Profile(name)
	if err != nil {
		return nil, err
	}
	hotNames := map[string]bool{}
	for _, o := range app.HotObjects() {
		hotNames[o.Name] = true
	}
	var out []arch.BlockAddr
	for _, b := range p.Blocks {
		if hotNames[b.Object] == hot {
			out = append(out, b.Block)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s has no hot=%t blocks", name, hot)
	}
	return out, nil
}

// modelFor maps a cell's model identity back to one of the paper's models.
func modelFor(info fault.ModelInfo) (fault.Model, error) {
	for _, m := range experiments.DefaultFaultModels() {
		if fault.Info(m) == info {
			return m, nil
		}
	}
	return nil, fmt.Errorf("no default fault model %v", info)
}

// referenceCampaign re-derives a campaign through the clone-per-run path
// the fork and batch parity tests use as their oracle: a deep clone of the
// prepared image per run, injection, a full execution and a metric check
// against the golden output of a fresh application instance (computed here,
// outside the result store, so the check writes nothing to it). With wrong
// set, every verdict is shifted to the next outcome so the comparison must
// fail.
func referenceCampaign(s *experiments.Suite, cp *experiments.Checkpoint, runs int, seed int64,
	model fault.Model, sel fault.Selector, wrong bool) (fault.Result, error) {
	base, err := s.Fresh(cp.App.Name)
	if err != nil {
		return fault.Result{}, err
	}
	golden, err := base.GoldenRun()
	if err != nil {
		return fault.Result{}, err
	}
	outcomes := fault.Outcomes()
	return fault.Campaign{Runs: runs, Seed: seed, Workers: 1}.Execute(
		func(_ int, rng *rand.Rand) (fault.Outcome, error) {
			clone := cp.App.Mem.Clone()
			if _, err := fault.Inject(clone, rng, model, sel, nil); err != nil {
				return 0, err
			}
			o, err := experiments.ClassifyRun(cp.App, clone, cp.Plan, golden)
			if err != nil || !wrong {
				return o, err
			}
			for i, x := range outcomes {
				if x == o {
					return outcomes[(i+1)%len(outcomes)], nil
				}
			}
			return o, nil
		})
}

// checkResult verifies a campaign result's internal consistency: every run
// classified exactly once.
func checkResult(res fault.Result, runs int) error {
	sum := res.MaskedRuns + res.SDCRuns + res.DetectedRuns + res.CrashedRuns + res.DUERuns
	if res.Runs != runs || sum != runs {
		return fmt.Errorf("result %+v does not classify %d runs", res, runs)
	}
	return nil
}

// goldenRun is one entry of internal/experiments/testdata/golden_stats.json:
// a Table I replay's per-kernel statistics at a golden configuration.
type goldenRun struct {
	App     string
	Scheme  string
	Level   int
	Kernels []timing.KernelStats
}

// loadGoldenStats reads the committed replay statistics. With wrong set,
// every entry's first kernel gains a cycle so every comparison must fail.
func loadGoldenStats(repoRoot string, wrong bool) ([]goldenRun, error) {
	data, err := os.ReadFile(filepath.Join(repoRoot, "internal", "experiments", "testdata", "golden_stats.json"))
	if err != nil {
		return nil, err
	}
	var runs []goldenRun
	if err := json.Unmarshal(data, &runs); err != nil {
		return nil, fmt.Errorf("golden_stats.json: %w", err)
	}
	if wrong {
		for i := range runs {
			if len(runs[i].Kernels) > 0 {
				runs[i].Kernels[0].Cycles++
			}
		}
	}
	return runs, nil
}

// config returns the golden entry's configuration.
func (g goldenRun) config() (config, error) {
	for _, sc := range []core.Scheme{core.None, core.Detection, core.Correction} {
		if sc.String() == g.Scheme {
			return config{g.App, sc, g.Level}, nil
		}
	}
	return config{}, fmt.Errorf("golden entry %s has unknown scheme %q", g.App, g.Scheme)
}

// simTotals sums the simulated statistics of Table I replays: warp
// instructions, cycles, replica copies, compare stalls, L1/L2 read misses,
// DRAM row hits and requests served, and crossbar requests.
type simTotals struct {
	instr, cycles, copies, stalls, l1Misses, l2Misses, rowHits, served, nocReq uint64
}

func (t *simTotals) add(st timing.AppStats) {
	for _, k := range st.Kernels {
		t.instr += k.Instructions
		t.cycles += uint64(k.Cycles)
		t.copies += k.CopyTransactions
		t.stalls += k.CompareStalls
		t.l1Misses += k.L1.ReadMisses
		t.l2Misses += k.L2.ReadMisses
		t.rowHits += k.DRAM.RowHits
		t.served += k.DRAM.Served
		t.nocReq += k.NoC.Requests
	}
}

// report records the simulated statistics as per-layer metrics.
func (t simTotals) report(r *report) {
	r.set("timing.warp_instr", float64(t.instr))
	r.set("timing.sim_cycles", float64(t.cycles))
	r.set("timing.copy_transactions", float64(t.copies))
	r.set("timing.compare_stalls", float64(t.stalls))
	r.set("cache.l1_read_misses", float64(t.l1Misses))
	r.set("cache.l2_read_misses", float64(t.l2Misses))
	if t.served > 0 {
		r.set("dram.row_hit_frac", float64(t.rowHits)/float64(t.served))
	}
	r.set("noc.requests", float64(t.nocReq))
}

// faultTotals records campaign outcome counts as per-layer metrics.
func faultTotals(r *report, results []fault.Result) {
	var sum fault.Result
	for _, res := range results {
		sum.Add(res)
	}
	r.set("fault.runs", float64(sum.Runs))
	r.set("fault.sdc_runs", float64(sum.SDCRuns))
	r.set("fault.detected_runs", float64(sum.DetectedRuns))
	r.set("fault.masked_runs", float64(sum.MaskedRuns))
	r.set("fault.crashed_runs", float64(sum.CrashedRuns))
}

// counterMetrics records the program's own dcrm_* counters from a traced
// pass as per-layer ratios and counts.
func counterMetrics(r *report, reg *telemetry.Registry) {
	snap := reg.Snapshot()
	val := func(name string) float64 {
		if s, ok := snap.Get(name); ok {
			return s.Value
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	sumVec := func(name string) float64 {
		var total float64
		for _, s := range snap {
			if s.Name == name {
				total += s.Value
			}
		}
		return total
	}
	r.set("experiments.pruned_frac", ratio(val("dcrm_campaign_runs_pruned_total"), val("dcrm_campaign_runs_total")))
	if s, ok := snap.Get("dcrm_campaign_batch_occupancy"); ok {
		r.set("experiments.batch_occupancy", ratio(s.Value, float64(s.Count)))
	}
	applied, replayed := val("dcrm_campaign_applied_warps_total"), val("dcrm_campaign_replayed_warps_total")
	r.set("experiments.applied_warp_frac", ratio(applied, applied+replayed))
	r.set("experiments.fallback_frac", ratio(val("dcrm_campaign_batch_fallback_runs_total"), val("dcrm_campaign_batch_runs_total")))
	r.set("mem.block_copies_per_run", ratio(val("dcrm_campaign_fork_block_copies_total"), val("dcrm_campaign_fork_runs_total")))
	r.set("mem.forks", val("dcrm_campaign_forks_total"))
	r.set("store.disk_hits", val("dcrm_store_disk_hits_total"))
	r.set("store.computes", val("dcrm_store_computes_total"))
	r.set("store.mem_evictions", val("dcrm_store_mem_evictions_total"))
	r.set("store.artifact_recomputes", sumVec("dcrm_artifact_computed_total"))
}

// spanMetrics records per-layer self times from a traced run's spans, and
// the coverage and pool figures of its measured pass.
func spanMetrics(r *report, tr *tracer) {
	for _, name := range []string{
		"nn.train", "profile.collect", "core.plan", "kernels.golden", "kernels.trace",
		"simt.capture", "timing.replay", "timing.missweight", "fault.hot_campaign",
		"fault.wide_campaign", "fault.rest_campaign", "store.restart_load",
	} {
		r.set(name+"_s", tr.selfSeconds(name))
	}
	cov, busy := tr.coverage()
	r.set("bench.span_coverage_frac", cov)
	r.set("experiments.pool_busy_frac", busy)
}
