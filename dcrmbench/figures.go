package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/simt"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
	"github.com/datacentric-gpu/dcrm/internal/timing"
)

// The paper's headline numbers the figures workload reports its error
// against (GPGPU-Sim results, Sections V-A and V-B).
const (
	paperSDCDropPct      = 98.97
	paperDetOverheadPct  = 1.2
	paperCorrOverheadPct = 3.4
)

const (
	figuresRuns        = 10 // campaign runs per configuration
	figuresSetupsFirst = 3  // suites built before the first pass, for setup_s
	figuresSampleCells = 2  // campaigns per figure re-derived by the reference
	figuresSmokeRuns   = 2
	figuresSmokeSample = 1
)

// figuresSmokeApps are the Fig. 6/7/9 applications at smoke size: the two
// cheapest evaluated apps.
var figuresSmokeApps = []string{"P-BICG", "A-Sobel"}

// figuresSize sizes the figures workload.
type figuresSize struct {
	runs   int      // campaign runs per configuration
	apps   []string // Fig. 6/7/9 applications (nil = the evaluated eight)
	sample int      // campaigns per figure the reference re-derives
}

func figuresSizeFor(o options) figuresSize {
	if o.smoke {
		return figuresSize{runs: figuresSmokeRuns, apps: figuresSmokeApps, sample: figuresSmokeSample}
	}
	return figuresSize{runs: figuresRuns, sample: figuresSampleCells}
}

// figuresOut is every output of one figures pass.
type figuresOut struct {
	t2 []experiments.Table2Row
	f3 []experiments.Fig3Result
	f4 []experiments.Fig4Result
	t3 []experiments.Table3Row
	f6 []experiments.Fig6Cell
	f7 []experiments.Fig7Point
	f9 []experiments.Fig9Cell
}

// figureNames are the figure functions of one pass, in cmd/repro's order.
var figureNames = []string{"table2", "fig3", "fig4", "table3", "fig6", "fig7", "fig9"}

// mismatches names the figures whose outputs differ between a and b.
func (a figuresOut) mismatches(b figuresOut) []string {
	same := []bool{
		reflect.DeepEqual(a.t2, b.t2), reflect.DeepEqual(a.f3, b.f3), reflect.DeepEqual(a.f4, b.f4),
		reflect.DeepEqual(a.t3, b.t3), reflect.DeepEqual(a.f6, b.f6), reflect.DeepEqual(a.f7, b.f7),
		reflect.DeepEqual(a.f9, b.f9),
	}
	var out []string
	for i, ok := range same {
		if !ok {
			out = append(out, figureNames[i])
		}
	}
	return out
}

// figureSeeds are one run's campaign seeds.
type figureSeeds struct{ fig6, fig9 int64 }

// runFigures is the figures workload: each pass is a cold in-process build
// of the paper's evaluation on a fresh suite with the default memory-only
// store, so nothing carries over from an earlier pass.
func runFigures(o options, r *report) error {
	sz := figuresSizeFor(o)
	seeds := figureSeeds{fig6: campaignSeed(o.seed, 7), fig9: campaignSeed(o.seed, 11)}
	golden, err := loadGoldenStats(o.repoRoot, o.wrongRef)
	if err != nil {
		return err
	}

	var (
		setups []float64
		s      *experiments.Suite
		last   figuresOut
		times  map[string]float64
	)
	walls, err := closedLoop(o.seconds, func(i int) (float64, error) {
		s = nil
		runtime.GC()
		reps := 1
		if i == 0 {
			reps = figuresSetupsFirst
		}
		for k := 0; k < reps; k++ {
			t := time.Now()
			var err error
			if s, err = experiments.NewSuite(experiments.SuiteConfig{}); err != nil {
				return 0, err
			}
			setups = append(setups, time.Since(t).Seconds())
		}
		key := fmt.Sprintf("pass%d", i)
		t := time.Now()
		out, ts := figuresPass(s, sz, seeds, r, key)
		wall := time.Since(t).Seconds()
		if i > 0 {
			for _, name := range out.mismatches(last) {
				r.fail(key+"/"+name, "output differs from pass 0")
			}
		}
		last, times = out, ts
		return wall, nil
	})
	if err != nil {
		return err
	}
	r.set("wall_s", median(walls))
	r.set("setup_s", median(setups))
	for name, v := range times {
		r.set("experiments."+name+"_s", v)
	}
	if err := figuresAccuracy(s, sz, last, r); err != nil {
		return err
	}
	key := fmt.Sprintf("pass%d", len(walls)-1)
	figuresChecks(s, sz, seeds, last, golden, r, key, rand.New(rand.NewSource(o.seed)), o.wrongRef)
	var results []fault.Result
	for _, c := range last.f6 {
		results = append(results, c.Result)
	}
	for _, c := range last.f9 {
		results = append(results, c.Result)
	}
	faultTotals(r, results)

	if !o.trace {
		return nil
	}
	s = nil
	runtime.GC()
	reg := telemetry.NewRegistry()
	tr := newTracer(runtime.GOMAXPROCS(0))
	if err := (lane{tr: tr}).call("nn.train", func() (err error) {
		s, err = experiments.NewSuite(experiments.SuiteConfig{Telemetry: reg})
		return err
	}); err != nil {
		return err
	}
	tr.beginPass()
	traced, sim := figuresTraced(s, tr, reg, sz, seeds, r)
	tr.endPass()
	for _, name := range traced.mismatches(last) {
		r.fail("traced/"+name, "rebuilt cells differ from the untraced figure functions")
	}
	spanMetrics(r, tr)
	counterMetrics(r, reg)
	sim.report(r)
	r.set("timing.replays", float64(len(traced.f7)))
	if sim.instr > 0 {
		r.set("timing.host_ns_per_instr", tr.selfSeconds("timing.replay")*1e9/float64(sim.instr))
	}
	r.set("bench.trace_overhead_frac", tr.passWall()/median(walls)-1)
	return tr.writeChrome(o.tracePath())
}

// figuresPass calls every figure function once, timing each; an error
// return counts that figure as a failed operation.
func figuresPass(s *experiments.Suite, sz figuresSize, seeds figureSeeds, r *report, key string) (figuresOut, map[string]float64) {
	var out figuresOut
	times := map[string]float64{}
	call := func(name string, f func() error) {
		t := time.Now()
		err := f()
		times[name] = time.Since(t).Seconds()
		r.attempt(key+"/"+name, err)
	}
	call("table2", func() (err error) { out.t2, err = experiments.Table2ErrorMetrics(s); return })
	call("fig3", func() (err error) { out.f3, err = experiments.Fig3AccessProfiles(s, 0); return })
	call("fig4", func() (err error) { out.f4, err = experiments.Fig4WarpSharing(s, 0); return })
	call("table3", func() (err error) { out.t3, err = experiments.Table3DataObjects(s); return })
	call("fig6", func() (err error) {
		out.f6, err = experiments.Fig6HotVsRest(s, experiments.Fig6Config{Runs: sz.runs, Seed: seeds.fig6, Apps: sz.apps})
		return
	})
	call("fig7", func() (err error) {
		out.f7, err = experiments.Fig7Overhead(s, experiments.Fig7Config{Apps: sz.apps})
		return
	})
	call("fig9", func() (err error) {
		out.f9, err = experiments.Fig9Resilience(s, experiments.Fig9Config{Runs: sz.runs, Seed: seeds.fig9, Apps: sz.apps})
		return
	})
	return out, times
}

// figuresAccuracy records the simulator's error against the paper's
// headline numbers: SDC drop with hot objects protected (Fig. 9), and the
// hot-only detection and correction overheads (Fig. 7).
func figuresAccuracy(s *experiments.Suite, sz figuresSize, out figuresOut, r *report) error {
	apps := sz.apps
	if apps == nil {
		apps = s.EvaluatedNames()
	}
	hot, all, err := experiments.LevelMaps(s, apps)
	if err != nil {
		return err
	}
	sum := experiments.SummarizeFig7(out.f7, hot, all)
	r.set("sdc_drop_err_pp", math.Abs(experiments.SDCDropPercent(out.f9, hot)-paperSDCDropPct))
	r.set("det_overhead_err_pp", math.Abs(100*sum.DetectionHotOverhead-paperDetOverheadPct))
	r.set("corr_overhead_err_pp", math.Abs(100*sum.CorrectionHotOverhead-paperCorrOverheadPct))
	return nil
}

// figuresChecks verifies a pass's outputs outside the timed region: every
// campaign classifies each run once, Fig. 7's replays at the golden
// configurations match the committed statistics, and a sample of Fig. 6 and
// Fig. 9 campaigns matches the clone-per-run reference.
func figuresChecks(s *experiments.Suite, sz figuresSize, seeds figureSeeds, out figuresOut,
	golden []goldenRun, r *report, key string, rng *rand.Rand, wrong bool) {
	for _, c := range out.f6 {
		if err := checkResult(c.Result, sz.runs); err != nil {
			r.fail(key+"/fig6", "%s %s %v: %v", c.App, c.Space, c.Model, err)
		}
	}
	for _, c := range out.f9 {
		if err := checkResult(c.Result, sz.runs); err != nil {
			r.fail(key+"/fig9", "%s %v L%d %v: %v", c.App, c.Scheme, c.Level, c.Model, err)
		}
	}

	// Golden replay statistics: Fig. 7 keeps totals, so compare those.
	points := map[config]experiments.Fig7Point{}
	for _, p := range out.f7 {
		points[config{p.App, p.Scheme, p.Level}] = p
	}
	apps := map[string]bool{}
	for _, p := range out.f7 {
		apps[p.App] = true
	}
	for _, g := range golden {
		c, err := g.config()
		if err != nil {
			r.fail(key+"/fig7", "%v", err)
			continue
		}
		if !apps[c.app] {
			continue
		}
		p, ok := points[c]
		if !ok {
			r.fail(key+"/fig7", "no Fig. 7 point at golden configuration %v", c)
			continue
		}
		var want simTotals
		want.add(timing.AppStats{Kernels: g.Kernels})
		if uint64(p.Cycles) != want.cycles || p.L1Misses != want.l1Misses ||
			(c.scheme != core.None && p.CompareStalls != want.stalls) {
			r.fail(key+"/fig7", "%v: cycles %d, L1 misses %d, stalls %d; golden %d, %d, %d",
				c, p.Cycles, p.L1Misses, p.CompareStalls, want.cycles, want.l1Misses, want.stalls)
		}
	}

	// Campaign sample through the reference path.
	for k := 0; k < sz.sample && len(out.f6) > 0; k++ {
		cell := out.f6[rng.Intn(len(out.f6))]
		err := func() error {
			cp, err := s.Checkpoint(cell.App, core.None, 0)
			if err != nil {
				return err
			}
			blocks, err := spaceBlocks(s, cell.App, cell.Space == "hot")
			if err != nil {
				return err
			}
			sel, err := fault.NewSetSelector(blocks)
			if err != nil {
				return err
			}
			return compareReference(s, cp, cell.Result, sz.runs, seeds.fig6, cell.Model, sel, wrong)
		}()
		if err != nil {
			r.fail(key+"/fig6", "reference %s %s %v: %v", cell.App, cell.Space, cell.Model, err)
		}
	}
	for k := 0; k < sz.sample && len(out.f9) > 0; k++ {
		cell := out.f9[rng.Intn(len(out.f9))]
		err := func() error {
			cp, err := s.Checkpoint(cell.App, cell.Scheme, cell.Level)
			if err != nil {
				return err
			}
			sel, err := cp.MissSelector()
			if err != nil {
				return err
			}
			return compareReference(s, cp, cell.Result, sz.runs, seeds.fig9, cell.Model, sel, wrong)
		}()
		if err != nil {
			r.fail(key+"/fig9", "reference %s %v L%d %v: %v", cell.App, cell.Scheme, cell.Level, cell.Model, err)
		}
	}
}

// compareReference re-derives one campaign through the reference path and
// compares verdict counts.
func compareReference(s *experiments.Suite, cp *experiments.Checkpoint, got fault.Result, runs int, seed int64,
	info fault.ModelInfo, sel fault.Selector, wrong bool) error {
	model, err := modelFor(info)
	if err != nil {
		return err
	}
	want, err := referenceCampaign(s, cp, runs, seed, model, sel, wrong)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("fast path %+v, reference %+v", got, want)
	}
	return nil
}

// figuresTraced rebuilds the pass with spans at every layer boundary:
// Tables II/III and Figs. 3/4 through their figure functions after an
// explicit profile fan-out, and Figs. 6, 7 and 9 from the same public calls
// their implementations make, on a pool of the same width. It returns the
// rebuilt outputs and the Table I replay statistics.
func figuresTraced(s *experiments.Suite, tr *tracer, reg *telemetry.Registry, sz figuresSize,
	seeds figureSeeds, r *report) (figuresOut, simTotals) {
	lanes := tr.lanes
	l0 := lane{tr: tr}
	apps := sz.apps
	if apps == nil {
		apps = s.EvaluatedNames()
	}
	models := experiments.DefaultFaultModels()
	camp := func(runs int, seed int64) fault.Campaign {
		return fault.Campaign{Runs: runs, Seed: seed, Workers: campaignWorkers(lanes), Metrics: reg}
	}
	var out figuresOut
	var sim simTotals
	op := func(name string, err error) { r.attempt("traced/"+name, err) }

	// Tables II/III and Figs. 3/4 run through their figure functions on
	// lane 0; Fig. 3 first profiles every app on the pool, as it does itself.
	serial := func(name string, prefetch func(), f func() error) {
		tr.phaseDo("phase."+name, func() error {
			prefetch()
			op(name, l0.call("experiments."+name, f))
			return nil
		})
	}
	none := func() {}
	serial("table2", none, func() (err error) { out.t2, err = experiments.Table2ErrorMetrics(s); return })
	serial("fig3", func() {
		names := s.AllNames()
		fanOut(tr, lanes, len(names), func(l lane, i int) {
			if err := l.call("profile.collect", func() error { _, err := s.Profile(names[i]); return err }); err != nil {
				op("fig3", err)
			}
		})
	}, func() (err error) { out.f3, err = experiments.Fig3AccessProfiles(s, 0); return })
	serial("fig4", none, func() (err error) { out.f4, err = experiments.Fig4WarpSharing(s, 0); return })
	serial("table3", none, func() (err error) { out.t3, err = experiments.Table3DataObjects(s); return })

	tr.phaseDo("phase.fig6", func() error {
		perApp := make([][]experiments.Fig6Cell, len(apps))
		fanOut(tr, lanes, len(apps), func(l lane, i int) {
			cells, err := fig6App(s, l, apps[i], models, camp(sz.runs, seeds.fig6))
			perApp[i] = cells
			op("fig6", err)
		})
		for _, cells := range perApp {
			out.f6 = append(out.f6, cells...)
		}
		return nil
	})

	tr.phaseDo("phase.fig7", func() error {
		fanOut(tr, lanes, len(apps), func(l lane, i int) {
			op("fig7", l.call("kernels.trace", func() error { _, err := s.Traces(apps[i]); return err }))
		})
		cfgs, err := sweep(s, apps)
		op("fig7", err)
		stats := make([]timing.AppStats, len(cfgs))
		fanOut(tr, lanes, len(cfgs), func(l lane, i int) {
			st, err := tableIReplay(s, l, cfgs[i], reg)
			stats[i] = st
			op("fig7", err)
		})
		out.f7 = fig7Points(cfgs, stats)
		for _, st := range stats {
			sim.add(st)
		}
		return nil
	})

	tr.phaseDo("phase.fig9", func() error {
		fanOut(tr, lanes, len(apps), func(l lane, i int) {
			_, err := checkpointWith(s, l, config{apps[i], core.None, 0}, experiments.ArtifactGolden)
			op("fig9", err)
		})
		cfgs, err := sweep(s, apps)
		op("fig9", err)
		perTask := make([][]experiments.Fig9Cell, len(cfgs))
		fanOut(tr, lanes, len(cfgs), func(l lane, i int) {
			cells, err := fig9Config(s, l, cfgs[i], models, camp(sz.runs, seeds.fig9))
			perTask[i] = cells
			op("fig9", err)
		})
		for _, cells := range perTask {
			out.f9 = append(out.f9, cells...)
		}
		return nil
	})
	return out, sim
}

// fig6App is one Fig. 6 task: an application's hot and rest campaigns
// across every fault model, on its baseline checkpoint.
func fig6App(s *experiments.Suite, l lane, name string, models []fault.Model, c fault.Campaign) ([]experiments.Fig6Cell, error) {
	cp, err := checkpointWith(s, l, config{name, core.None, 0}, experiments.ArtifactGolden, experiments.ArtifactCapture)
	if err != nil {
		return nil, err
	}
	var hot, rest []arch.BlockAddr
	if err := l.call("profile.collect", func() (err error) {
		if hot, err = spaceBlocks(s, name, true); err != nil {
			return err
		}
		rest, err = spaceBlocks(s, name, false)
		return err
	}); err != nil {
		return nil, err
	}
	var cells []experiments.Fig6Cell
	for _, sp := range []struct {
		label, span string
		blocks      []arch.BlockAddr
	}{{"hot", "fault.hot_campaign", hot}, {"rest", "fault.rest_campaign", rest}} {
		sel, err := fault.NewSetSelector(sp.blocks)
		if err != nil {
			return nil, err
		}
		for _, m := range models {
			var res fault.Result
			if err := l.call(sp.span, func() (err error) { res, err = cp.Campaign(c, m, sel); return }); err != nil {
				return nil, err
			}
			cells = append(cells, experiments.Fig6Cell{App: name, Space: sp.label, Model: fault.Info(m), Result: res})
		}
	}
	return cells, nil
}

// fig9Config is one Fig. 9 task: a configuration's miss-weighted campaigns
// across every fault model.
func fig9Config(s *experiments.Suite, l lane, c config, models []fault.Model, camp fault.Campaign) ([]experiments.Fig9Cell, error) {
	cp, err := checkpointWith(s, l, c, experiments.ArtifactMissWeights, experiments.ArtifactGolden, experiments.ArtifactCapture)
	if err != nil {
		return nil, err
	}
	sel, err := cp.MissSelector()
	if err != nil {
		return nil, err
	}
	cells := make([]experiments.Fig9Cell, 0, len(models))
	for _, m := range models {
		var res fault.Result
		if err := l.call("fault.wide_campaign", func() (err error) { res, err = cp.Campaign(camp, m, sel); return }); err != nil {
			return nil, err
		}
		cells = append(cells, experiments.Fig9Cell{App: c.app, Scheme: c.scheme, Level: c.level, Model: fault.Info(m), Result: res})
	}
	return cells, nil
}

// artifactSpan names the span around building each checkpoint artifact.
var artifactSpan = map[string]string{
	experiments.ArtifactGolden:      "kernels.golden",
	experiments.ArtifactCapture:     "simt.capture",
	experiments.ArtifactMissWeights: "timing.missweight",
}

// checkpointWith fetches a configuration's checkpoint and builds the given
// artifacts, one span each.
func checkpointWith(s *experiments.Suite, l lane, c config, kinds ...string) (*experiments.Checkpoint, error) {
	var cp *experiments.Checkpoint
	if err := l.call("core.plan", func() (err error) { cp, err = s.Checkpoint(c.app, c.scheme, c.level); return }); err != nil {
		return nil, err
	}
	for _, kind := range kinds {
		if err := l.call(artifactSpan[kind], func() error { return cp.BuildArtifact(kind) }); err != nil {
			return nil, fmt.Errorf("%v %s: %w", c, kind, err)
		}
	}
	return cp, nil
}

// tableIReplay replays one configuration on the Table I hierarchy, as
// Fig. 7 does: the application's baseline traces through a fresh engine
// carrying the configuration's protection plan, at the suite's shard count.
func tableIReplay(s *experiments.Suite, l lane, c config, reg *telemetry.Registry) (timing.AppStats, error) {
	var traces []*simt.KernelTrace
	if err := l.call("kernels.trace", func() (err error) { traces, err = s.Traces(c.app); return }); err != nil {
		return timing.AppStats{}, err
	}
	var plan *core.Plan
	if c.scheme != core.None {
		var cp *experiments.Checkpoint
		if err := l.call("core.plan", func() (err error) { cp, err = s.Checkpoint(c.app, c.scheme, c.level); return }); err != nil {
			return timing.AppStats{}, err
		}
		plan = cp.Plan
	}
	return replayTableI(l, s.SimShards(), c, traces, plan, reg)
}

// replayTableI runs timing.New + Engine.RunApp on the Table I hierarchy
// with the default scheduler.
func replayTableI(l lane, shards int, c config, traces []*simt.KernelTrace, plan *core.Plan,
	reg *telemetry.Registry) (timing.AppStats, error) {
	var tplan timing.ProtectionPlan
	if plan != nil {
		tplan = plan
	}
	var st timing.AppStats
	err := l.call("timing.replay", func() error {
		eng, err := timing.New(arch.Default(), tplan)
		if err != nil {
			return err
		}
		eng.Shards = shards
		eng.Policy = timing.GTO
		eng.Metrics = reg
		st, err = eng.RunApp(c.app, traces)
		return err
	})
	if err != nil {
		return timing.AppStats{}, fmt.Errorf("%v: %w", c, err)
	}
	return st, nil
}

// fig7Points turns Table I replays of a sweep into Fig. 7 points, each
// normalized to its application's baseline (the sweep lists it first).
func fig7Points(cfgs []config, stats []timing.AppStats) []experiments.Fig7Point {
	out := make([]experiments.Fig7Point, len(cfgs))
	var baseCycles, baseMisses float64
	for i, c := range cfgs {
		p := experiments.Fig7Point{App: c.app, Scheme: c.scheme, Level: c.level,
			Cycles: stats[i].TotalCycles(), L1Misses: stats[i].TotalL1Misses()}
		for _, k := range stats[i].Kernels {
			p.CompareStalls += k.CompareStalls
		}
		if c.scheme == core.None {
			baseCycles, baseMisses = float64(p.Cycles), float64(p.L1Misses)
			p.NormTime, p.NormMisses, p.CompareStalls = 1, 1, 0
		} else {
			p.NormTime = float64(p.Cycles) / baseCycles
			p.NormMisses = float64(p.L1Misses) / baseMisses
		}
		out[i] = p
	}
	return out
}
