package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/simt"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
	"github.com/datacentric-gpu/dcrm/internal/timing"
)

const timingSetups = 3 // set-ups per run, for setup_s

// timingSmokeApps are the timing workload's applications at smoke size.
var timingSmokeApps = []string{"P-BICG", "A-Sobel"}

// timingEnv is the timing workload's set-up: every configuration of the
// Fig. 7 sweep with its checkpoint (fresh instance + plan) and the
// application's baseline traces.
type timingEnv struct {
	s      *experiments.Suite
	cfgs   []config
	cps    []*experiments.Checkpoint
	traces map[string][]*simt.KernelTrace
}

// errOnce keeps the first error reported by concurrent tasks.
type errOnce struct {
	mu  sync.Mutex
	err error
}

func (e *errOnce) set(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

// timingSetup builds the suite, captures every application's traces and
// builds every configuration's plan.
func timingSetup(tr *tracer, reg *telemetry.Registry, apps []string) (*timingEnv, error) {
	lanes := runtime.GOMAXPROCS(0)
	env := &timingEnv{traces: map[string][]*simt.KernelTrace{}}
	if err := (lane{tr: tr}).call("nn.train", func() (err error) {
		env.s, err = experiments.NewSuite(experiments.SuiteConfig{Telemetry: reg})
		return err
	}); err != nil {
		return nil, err
	}
	if apps == nil {
		apps = env.s.EvaluatedNames()
	}
	var first errOnce
	traces := make([][]*simt.KernelTrace, len(apps))
	fanOut(tr, lanes, len(apps), func(l lane, i int) {
		first.set(l.call("kernels.trace", func() (err error) { traces[i], err = env.s.Traces(apps[i]); return }))
	})
	for i, name := range apps {
		env.traces[name] = traces[i]
	}
	cfgs, err := sweep(env.s, apps)
	if err != nil {
		return nil, err
	}
	env.cfgs, env.cps = cfgs, make([]*experiments.Checkpoint, len(cfgs))
	fanOut(tr, lanes, len(cfgs), func(l lane, i int) {
		c := cfgs[i]
		first.set(l.call("core.plan", func() (err error) { env.cps[i], err = env.s.Checkpoint(c.app, c.scheme, c.level); return }))
	})
	return env, first.err
}

// timingPass replays every configuration twice: on the Table I hierarchy
// and on the Fig. 8 scaled-cache hierarchy behind the miss-weighted
// selector. The replays fan out over GOMAXPROCS lanes at the suite's
// default shard count.
func timingPass(env *timingEnv, tr *tracer, reg *telemetry.Registry, r *report, key string) ([]timing.AppStats, []fault.Selector) {
	n := len(env.cfgs)
	stats := make([]timing.AppStats, n)
	sels := make([]fault.Selector, n)
	fanOut(tr, runtime.GOMAXPROCS(0), 2*n, func(l lane, j int) {
		i, c, cp := j/2, env.cfgs[j/2], env.cps[j/2]
		if j%2 == 0 {
			st, err := replayTableI(l, env.s.SimShards(), c, env.traces[c.app], cp.Plan, reg)
			stats[i] = st
			r.attempt(fmt.Sprintf("%s/tableI/%v", key, c), err)
			return
		}
		err := l.call("timing.missweight", func() (err error) {
			sels[i], err = experiments.MissWeightedSelector(cp.App, cp.Plan, env.s.SimShards())
			return
		})
		r.attempt(fmt.Sprintf("%s/fig8/%v", key, c), err)
	})
	return stats, sels
}

// runTiming is the timing workload: the Fig. 7 sweep replayed on two cache
// hierarchies. It does no fault-injection work.
func runTiming(o options, r *report) error {
	var apps []string
	if o.smoke {
		apps = timingSmokeApps
	}
	golden, err := loadGoldenStats(o.repoRoot, o.wrongRef)
	if err != nil {
		return err
	}
	var (
		env    *timingEnv
		setups []float64
	)
	for k := 0; k < timingSetups; k++ {
		env = nil
		runtime.GC()
		t := time.Now()
		if env, err = timingSetup(nil, nil, apps); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	var (
		first     []timing.AppStats
		firstSels []fault.Selector
		rates     []float64
	)
	walls, err := closedLoop(o.seconds, func(i int) (float64, error) {
		key := fmt.Sprintf("pass%d", i)
		t := time.Now()
		stats, sels := timingPass(env, nil, nil, r, key)
		wall := time.Since(t).Seconds()
		var sim simTotals
		for _, st := range stats {
			sim.add(st)
		}
		// Both hierarchies replay the same traces, so they issue the same
		// warp instructions.
		rates = append(rates, 2*float64(sim.instr)/wall/1000)
		if i == 0 {
			first, firstSels = stats, sels
		} else {
			checkRepeat(r, key, env.cfgs, first, stats, firstSels, sels)
		}
		return wall, nil
	})
	if err != nil {
		return err
	}
	r.set("wall_s", median(walls))
	r.set("setup_s", median(setups))
	r.set("sim_kinstr_per_s", median(rates))
	timingGoldenCheck(env, golden, first, r, !o.smoke)

	if !o.trace {
		return nil
	}
	env = nil
	runtime.GC()
	reg := telemetry.NewRegistry()
	tr := newTracer(runtime.GOMAXPROCS(0))
	if env, err = timingSetup(tr, reg, apps); err != nil {
		return err
	}
	tr.beginPass()
	stats, sels := timingPass(env, tr, reg, r, "traced")
	tr.endPass()
	checkRepeat(r, "traced", env.cfgs, first, stats, firstSels, sels)

	var sim simTotals
	for _, st := range stats {
		sim.add(st)
	}
	sim.report(r)
	spanMetrics(r, tr)
	counterMetrics(r, reg)
	r.set("timing.replays", float64(len(stats)))
	if sim.instr > 0 {
		r.set("timing.host_ns_per_instr", tr.selfSeconds("timing.replay")*1e9/float64(sim.instr))
	}
	r.set("bench.trace_overhead_frac", tr.passWall()/median(walls)-1)
	allocs, err := allocsPerKernel(env)
	if err != nil {
		return err
	}
	r.set("timing.allocs_per_kernel", allocs)
	return tr.writeChrome(o.tracePath())
}

// checkRepeat fails every replay whose simulated statistics or miss
// histogram differ from the first pass's.
func checkRepeat(r *report, key string, cfgs []config, first, stats []timing.AppStats, firstSels, sels []fault.Selector) {
	for i, c := range cfgs {
		if !reflect.DeepEqual(first[i].Kernels, stats[i].Kernels) {
			r.fail(fmt.Sprintf("%s/tableI/%v", key, c), "statistics differ from pass 0")
		}
		if !reflect.DeepEqual(firstSels[i], sels[i]) {
			r.fail(fmt.Sprintf("%s/fig8/%v", key, c), "miss histogram differs from pass 0")
		}
	}
}

// timingGoldenCheck compares Table I replays at the golden configurations
// with the committed statistics. Entries whose application the sweep does
// not cover (the two counter-example apps) are replayed here, outside the
// timed region, when extra is set.
func timingGoldenCheck(env *timingEnv, golden []goldenRun, stats []timing.AppStats, r *report, extra bool) {
	index := map[config]int{}
	for i, c := range env.cfgs {
		index[c] = i
	}
	for _, g := range golden {
		c, err := g.config()
		if err != nil {
			r.fail("golden", "%v", err)
			continue
		}
		if i, ok := index[c]; ok {
			if !reflect.DeepEqual(stats[i].Kernels, g.Kernels) {
				r.fail(fmt.Sprintf("pass0/tableI/%v", c), "statistics differ from golden_stats.json")
			}
			continue
		}
		if !extra {
			continue
		}
		key := fmt.Sprintf("golden/tableI/%v", c)
		st, err := goldenReplay(env.s, c)
		r.attempt(key, err)
		if err == nil && !reflect.DeepEqual(st.Kernels, g.Kernels) {
			r.fail(key, "statistics differ from golden_stats.json")
		}
	}
}

// goldenReplay replays a golden configuration outside the sweep, building
// its plan the way the golden-stats test does.
func goldenReplay(s *experiments.Suite, c config) (timing.AppStats, error) {
	traces, err := s.Traces(c.app)
	if err != nil {
		return timing.AppStats{}, err
	}
	var plan *core.Plan
	if c.scheme != core.None && c.level > 0 {
		if _, plan, err = s.PlanFor(c.app, c.scheme, c.level); err != nil {
			return timing.AppStats{}, err
		}
	}
	return replayTableI(lane{}, s.SimShards(), c, traces, plan, nil)
}

// allocsPerKernel replays each application's baseline serially and returns
// the heap allocations Engine.RunApp makes per simulated kernel (engine
// construction excluded).
func allocsPerKernel(env *timingEnv) (float64, error) {
	var mallocs uint64
	kernels := 0
	var before, after runtime.MemStats
	for _, c := range env.cfgs {
		if c.scheme != core.None {
			continue
		}
		eng, err := timing.New(arch.Default(), nil)
		if err != nil {
			return 0, err
		}
		eng.Shards = env.s.SimShards()
		runtime.ReadMemStats(&before)
		st, err := eng.RunApp(c.app, env.traces[c.app])
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, err
		}
		mallocs += after.Mallocs - before.Mallocs
		kernels += len(st.Kernels)
	}
	if kernels == 0 {
		return 0, nil
	}
	return float64(mallocs) / float64(kernels), nil
}
