package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/store"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

const (
	// campaignRuns is the length of every campaign: two whole 64-lane
	// batches, as the paper's 1000-run campaigns mostly are.
	campaignRuns       = 128
	campaignSample     = 2 // campaigns per pass re-derived by the reference
	campaignSetups     = 3 // set-ups per run, for setup_s
	campaignSmokeRuns  = 8
	campaignSeedBase   = 13
	campaignSmokeModel = 1 // fault models per configuration at smoke size
)

// campaignSmokeApps are the campaign workload's applications at smoke size.
var campaignSmokeApps = []string{"P-BICG", "A-Sobel"}

// campaignArtifacts are the checkpoint artifacts the set-up persists and a
// restart serves.
var campaignArtifacts = []string{experiments.ArtifactGolden, experiments.ArtifactCapture, experiments.ArtifactMissWeights}

// campaignSize sizes the campaign workload.
type campaignSize struct {
	apps   []string // nil = the evaluated eight
	runs   int
	models []fault.Model
	sample int
}

func campaignSizeFor(o options) campaignSize {
	if o.smoke {
		return campaignSize{apps: campaignSmokeApps, runs: campaignSmokeRuns,
			models: experiments.DefaultFaultModels()[:campaignSmokeModel], sample: 1}
	}
	return campaignSize{runs: campaignRuns, models: experiments.DefaultFaultModels(), sample: campaignSample}
}

// campaignSet lists the workload's configurations: one per application,
// the scheme rotating baseline → detection@hot → correction@hot across the
// applications, so all eight apps and all three schemes are covered with
// few configurations and long campaigns.
func campaignSet(s *experiments.Suite, apps []string) ([]config, error) {
	if apps == nil {
		apps = s.EvaluatedNames()
	}
	schemes := []core.Scheme{core.None, core.Detection, core.Correction}
	out := make([]config, 0, len(apps))
	for i, name := range apps {
		app, err := s.App(name)
		if err != nil {
			return nil, err
		}
		c := config{name, schemes[i%len(schemes)], 0}
		if c.scheme != core.None {
			c.level = app.HotCount
		}
		out = append(out, c)
	}
	return out, nil
}

// campaignEnv is one suite opened on the workload's store directory, with
// every configuration's checkpoint and both selectors.
type campaignEnv struct {
	s        *experiments.Suite
	cfgs     []config
	cps      []*experiments.Checkpoint
	hot, mis []fault.Selector
}

// openCampaignEnv opens a store and suite on dir and serves every artifact
// of the set: built and written to disk on a cold directory (set-up), read
// back on a warm one (restart, whose store work is spanned as
// store.restart_load). The selectors are built from the profile (hot-object
// blocks) and the miss-weights artifact.
func openCampaignEnv(dir string, tr *tracer, reg *telemetry.Registry, sz campaignSize, restart bool) (*campaignEnv, error) {
	lanes := runtime.GOMAXPROCS(0)
	env := &campaignEnv{}
	l0 := lane{tr: tr}
	openSpan := "store.open"
	if restart {
		openSpan = "store.restart_load"
	}
	var st *store.Store
	if err := l0.call(openSpan, func() (err error) {
		st, err = store.Open(store.Config{Dir: dir, Telemetry: reg})
		return err
	}); err != nil {
		return nil, err
	}
	if err := l0.call("nn.train", func() (err error) {
		env.s, err = experiments.NewSuite(experiments.SuiteConfig{Store: st, Telemetry: reg})
		return err
	}); err != nil {
		return nil, err
	}
	var cfgs []config
	if err := l0.call("core.plan", func() (err error) { cfgs, err = campaignSet(env.s, sz.apps); return }); err != nil {
		return nil, err
	}
	env.cfgs = cfgs
	env.cps = make([]*experiments.Checkpoint, len(cfgs))
	env.hot = make([]fault.Selector, len(cfgs))
	env.mis = make([]fault.Selector, len(cfgs))
	var first errOnce
	fanOut(tr, lanes, len(cfgs), func(l lane, i int) {
		c := cfgs[i]
		var cp *experiments.Checkpoint
		err := l.call("core.plan", func() (err error) { cp, err = env.s.Checkpoint(c.app, c.scheme, c.level); return })
		if err != nil {
			first.set(err)
			return
		}
		for _, kind := range campaignArtifacts {
			span := artifactSpan[kind]
			if restart {
				span = "store.restart_load"
			}
			if err := l.call(span, func() error { return cp.BuildArtifact(kind) }); err != nil {
				first.set(fmt.Errorf("%v %s: %w", c, kind, err))
				return
			}
		}
		err = l.call("profile.collect", func() error {
			blocks, err := spaceBlocks(env.s, c.app, true)
			if err == nil {
				env.hot[i], err = fault.NewSetSelector(blocks)
			}
			return err
		})
		if err == nil {
			env.mis[i], err = cp.MissSelector()
		}
		env.cps[i] = cp
		first.set(err)
	})
	return env, first.err
}

// campaignTask is one Checkpoint.Campaign call of a pass.
type campaignTask struct {
	cfg   int
	model fault.Model
	hot   bool
	// seed is the campaign's own seed. Campaigns that shared one would draw
	// the same injection sites under every fault model of a configuration,
	// so a pass's cost would hinge on a few draws.
	seed int64
}

// campaignTasks lists a pass's campaigns, seeding each from the workload's
// campaign seed and its position.
func campaignTasks(env *campaignEnv, sz campaignSize, seed int64) []campaignTask {
	var out []campaignTask
	for i := range env.cfgs {
		for _, m := range sz.models {
			for _, hot := range []bool{true, false} {
				out = append(out, campaignTask{i, m, hot, seed*1000 + int64(len(out))})
			}
		}
	}
	return out
}

// campaignPassOut is what one campaign pass measured and returned.
type campaignPassOut struct {
	env              *campaignEnv
	restart, wall    float64
	results          []fault.Result
	hotSecs, misSecs float64
	hotRuns, misRuns int
}

// campaignPass is one pass: a second process's warm start on the store
// directory (it only reads), then every configuration's hot-set and
// miss-weighted campaigns under every fault model.
func campaignPass(dir string, tr *tracer, reg *telemetry.Registry, sz campaignSize, seed int64, r *report, key string) (campaignPassOut, error) {
	var out campaignPassOut
	before, err := snapshotDir(dir)
	if err != nil {
		return out, err
	}
	start := time.Now()
	tr.beginPass()
	err = tr.phaseDo("phase.restart", func() (err error) {
		out.env, err = openCampaignEnv(dir, tr, reg, sz, true)
		return err
	})
	out.restart = time.Since(start).Seconds()
	r.attempt(key+"/restart", err)
	if err != nil {
		tr.endPass()
		return out, nil
	}
	env := out.env
	tasks := campaignTasks(env, sz, seed)
	out.results = make([]fault.Result, len(tasks))
	// Run the campaigns of the largest launches first, so the pass does not
	// end on one long campaign while the other lanes idle.
	warps := make([]int, len(env.cfgs))
	for i, cp := range env.cps {
		for _, k := range cp.App.Kernels {
			warps[i] += k.TotalWarps()
		}
	}
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return warps[tasks[order[a]].cfg] > warps[tasks[order[b]].cfg] })
	var mu sync.Mutex
	tr.phaseDo("phase.campaigns", func() error {
		fanOut(tr, runtime.GOMAXPROCS(0), len(tasks), func(l lane, j int) {
			i := order[j]
			t := tasks[i]
			c, cp := env.cfgs[t.cfg], env.cps[t.cfg]
			sel, span := env.mis[t.cfg], "fault.wide_campaign"
			if t.hot {
				sel, span = env.hot[t.cfg], "fault.hot_campaign"
			}
			camp := fault.Campaign{Runs: sz.runs, Seed: t.seed, Workers: campaignWorkers(runtime.GOMAXPROCS(0)), Metrics: reg}
			began := time.Now()
			var res fault.Result
			err := l.call(span, func() (err error) { res, err = cp.Campaign(camp, t.model, sel); return })
			secs := time.Since(began).Seconds()
			r.attempt(taskKey(key, c, t), err)
			out.results[i] = res
			mu.Lock()
			if t.hot {
				out.hotSecs, out.hotRuns = out.hotSecs+secs, out.hotRuns+res.Runs
			} else {
				out.misSecs, out.misRuns = out.misSecs+secs, out.misRuns+res.Runs
			}
			mu.Unlock()
		})
		return nil
	})
	out.wall = time.Since(start).Seconds()
	tr.endPass()

	after, err := snapshotDir(dir)
	if err != nil {
		return out, err
	}
	if changed := before.changes(after); changed > 0 {
		r.fail(key+"/restart", "%d store files written: artifacts were recomputed", changed)
	}
	return out, nil
}

func taskKey(key string, c config, t campaignTask) string {
	class := "wide"
	if t.hot {
		class = "hot"
	}
	return fmt.Sprintf("%s/%s/%v/%v", key, class, c, t.model)
}

// runCampaign is the campaign workload: artifacts persisted once into an
// empty disk store, then passes that each restart on it and run campaigns.
// The timing engine and the profiler do no work in a pass.
func runCampaign(o options, r *report) error {
	sz := campaignSizeFor(o)
	seed := campaignSeed(o.seed, campaignSeedBase)

	// Set up campaignSetups times into fresh empty directories and keep the
	// last; setup_s is the median. A traced run traces only the kept one.
	var (
		dir    string
		setups []float64
		tr     *tracer
		reg    *telemetry.Registry
	)
	defer func() {
		if dir != "" {
			os.RemoveAll(dir)
		}
	}()
	for k := 0; k < campaignSetups; k++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		var err error
		if dir, err = os.MkdirTemp(o.workDir, "campaign-store-"); err != nil {
			return err
		}
		if o.trace && k == campaignSetups-1 {
			tr, reg = newTracer(runtime.GOMAXPROCS(0)), telemetry.NewRegistry()
		}
		runtime.GC()
		t := time.Now()
		if _, err := openCampaignEnv(dir, tr, reg, sz, false); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.set("setup_s", median(setups))
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.set("store_disk_mb", float64(size)/(1<<20))

	var (
		restarts, hotRates, misRates []float64
		first                        []fault.Result
	)
	rng := rand.New(rand.NewSource(o.seed))
	walls, err := closedLoop(o.seconds, func(i int) (float64, error) {
		runtime.GC()
		key := fmt.Sprintf("pass%d", i)
		out, err := campaignPass(dir, nil, nil, sz, seed, r, key)
		if err != nil || out.env == nil {
			return 0, err
		}
		restarts = append(restarts, out.restart)
		hotRates = append(hotRates, float64(out.hotRuns)/out.hotSecs)
		misRates = append(misRates, float64(out.misRuns)/out.misSecs)
		campaignChecks(out, sz, seed, first, r, key, rng, o.wrongRef)
		if i == 0 {
			first = out.results
		}
		return out.wall, nil
	})
	if err != nil {
		return err
	}
	r.set("wall_s", median(walls))
	r.set("restart_s", median(restarts))
	r.set("hot_runs_per_s", median(hotRates))
	r.set("wide_runs_per_s", median(misRates))
	faultTotals(r, first)

	if !o.trace {
		return nil
	}
	runtime.GC()
	passReg := telemetry.NewRegistry()
	out, err := campaignPass(dir, tr, passReg, sz, seed, r, "traced")
	if err != nil {
		return err
	}
	if out.env != nil {
		campaignChecks(out, sz, seed, first, r, "traced", rng, o.wrongRef)
	}
	spanMetrics(r, tr)
	counterMetrics(r, passReg)
	if n := r.get("store.artifact_recomputes"); n > 0 {
		r.fail("traced/restart", "%g artifacts recomputed on restart", n)
	}
	r.set("bench.trace_overhead_frac", out.wall/median(walls)-1)
	return tr.writeChrome(o.tracePath())
}

// campaignChecks verifies a pass outside its timed region: every campaign
// classifies each run once, repeats the first pass's verdict counts, and a
// sample matches the clone-per-run reference.
func campaignChecks(out campaignPassOut, sz campaignSize, seed int64, first []fault.Result, r *report,
	key string, rng *rand.Rand, wrong bool) {
	env := out.env
	tasks := campaignTasks(env, sz, seed)
	for i, t := range tasks {
		k := taskKey(key, env.cfgs[t.cfg], t)
		if err := checkResult(out.results[i], sz.runs); err != nil {
			r.fail(k, "%v", err)
		}
		if first != nil && out.results[i] != first[i] {
			r.fail(k, "verdict counts %+v differ from pass 0's %+v", out.results[i], first[i])
		}
	}
	for n := 0; n < sz.sample; n++ {
		i := rng.Intn(len(tasks))
		t := tasks[i]
		sel := env.mis[t.cfg]
		if t.hot {
			sel = env.hot[t.cfg]
		}
		want, err := referenceCampaign(env.s, env.cps[t.cfg], sz.runs, t.seed, t.model, sel, wrong)
		if err == nil && want != out.results[i] {
			err = fmt.Errorf("fast path %+v, reference %+v", out.results[i], want)
		}
		if err != nil {
			r.fail(taskKey(key, env.cfgs[t.cfg], t), "reference: %v", err)
		}
	}
}

// fileState identifies one store file's contents on disk.
type fileState struct {
	size, modNanos int64
}

type dirState map[string]fileState

// snapshotDir records every file under dir. A restart that recomputes an
// artifact writes its file again (or a new one), which changes the state.
func snapshotDir(dir string) (dirState, error) {
	st := dirState{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		st[path] = fileState{info.Size(), info.ModTime().UnixNano()}
		return nil
	})
	return st, err
}

// changes counts files added, removed or rewritten between two snapshots.
func (a dirState) changes(b dirState) int {
	n := 0
	for path, s := range b {
		if old, ok := a[path]; !ok || old != s {
			n++
		}
	}
	for path := range a {
		if _, ok := b[path]; !ok {
			n++
		}
	}
	return n
}

// dirBytes sums the sizes of every file under dir.
func dirBytes(dir string) (int64, error) {
	st, err := snapshotDir(dir)
	var n int64
	for _, f := range st {
		n += f.size
	}
	return n, err
}
