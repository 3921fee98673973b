package experiments

import (
	"github.com/datacentric-gpu/dcrm/internal/core"
)

// Fig7Point is one bar of Fig. 7: the timing-simulator result for one
// (application, scheme, protection level) configuration.
type Fig7Point struct {
	App    string
	Scheme core.Scheme
	// Level is the cumulative number of protected data objects (0 =
	// baseline).
	Level int
	// Cycles is the measured execution time in core cycles.
	Cycles int64
	// L1Misses is the L1-missed access count (including replica accesses).
	L1Misses uint64
	// NormTime and NormMisses are normalized to the unprotected baseline.
	NormTime   float64
	NormMisses float64
	// CompareStalls counts pending-compare-buffer structural stalls.
	CompareStalls uint64
}

// Fig7Config sizes the performance sweep. Every point runs under the
// paper's greedy-then-oldest warp scheduler (timing.GTO, the engine's
// default).
type Fig7Config struct {
	// Apps restricts the application set. Default: the evaluated eight of
	// Table II.
	Apps []string
}

// fig7Overhead is Fig7Overhead's compute path (store miss): for every
// application, sweep the cumulative number of protected data objects for
// both schemes and measure execution time and L1-missed accesses on the
// timing simulator, normalized to the unprotected baseline. Every
// (application, scheme, level) timing run — baseline included — is its own
// task unit on the suite's worker pool; each task replays the
// application's memoized read-only traces (Suite.Traces, recorded by the
// first task that asks) through a private engine, exactly as the hardware
// proposal adds copy transactions at the LD/ST unit. Points come back and
// are normalized in the serial sweep order, so output is identical at any
// worker count. The wrapper has already resolved defaults.
func fig7Overhead(s *Suite, cfg Fig7Config) ([]Fig7Point, error) {
	// Level 0 under scheme None is the normalization baseline.
	cfgs, err := s.configs(cfg.Apps, protectingSchemes, protectedLevels)
	if err != nil {
		return nil, err
	}
	out, err := fanOut(s, "fig7: timing sweep", len(cfgs), func(i int) (Fig7Point, error) {
		c := cfgs[i]
		st, err := replay(s, SimConfig{App: c.app, Scheme: c.scheme, Level: c.level}, nil)
		if err != nil {
			return Fig7Point{}, err
		}
		var stalls uint64
		for _, k := range st.Kernels {
			stalls += k.CompareStalls
		}
		return Fig7Point{
			App:           c.app,
			Scheme:        c.scheme,
			Level:         c.level,
			Cycles:        st.TotalCycles(),
			L1Misses:      st.TotalL1Misses(),
			CompareStalls: stalls,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	// Normalize every point to its application's baseline. The
	// task list is app-major with the baseline first, so a single pass
	// suffices.
	var baseCycles, baseMisses float64
	for i := range out {
		if out[i].Scheme == core.None {
			baseCycles = float64(out[i].Cycles)
			baseMisses = float64(out[i].L1Misses)
			out[i].NormTime, out[i].NormMisses = 1, 1
			out[i].CompareStalls = 0
			continue
		}
		out[i].NormTime = float64(out[i].Cycles) / baseCycles
		out[i].NormMisses = float64(out[i].L1Misses) / baseMisses
	}
	return out, nil
}

// Fig7Summary aggregates the paper's headline averages.
type Fig7Summary struct {
	// DetectionHotOverhead is the average normalized-time overhead when
	// only hot objects are protected with detection (paper: 1.2%).
	DetectionHotOverhead float64
	// CorrectionHotOverhead is the same for detection-and-correction
	// (paper: 3.4%).
	CorrectionHotOverhead float64
	// DetectionAllOverhead / CorrectionAllOverhead protect every object
	// (paper: 40.65% / 74.24%).
	DetectionAllOverhead  float64
	CorrectionAllOverhead float64
}

// SummarizeFig7 computes the Section V-A averages from the sweep points.
// hotLevels maps each app to its hot-object count; allLevels to its total
// object count.
func SummarizeFig7(points []Fig7Point, hotLevels, allLevels map[string]int) Fig7Summary {
	var sum Fig7Summary
	var nDetHot, nCorHot, nDetAll, nCorAll int
	for _, p := range points {
		switch {
		case p.Scheme == core.Detection && p.Level == hotLevels[p.App]:
			sum.DetectionHotOverhead += p.NormTime - 1
			nDetHot++
		case p.Scheme == core.Correction && p.Level == hotLevels[p.App]:
			sum.CorrectionHotOverhead += p.NormTime - 1
			nCorHot++
		}
		switch {
		case p.Scheme == core.Detection && p.Level == allLevels[p.App]:
			sum.DetectionAllOverhead += p.NormTime - 1
			nDetAll++
		case p.Scheme == core.Correction && p.Level == allLevels[p.App]:
			sum.CorrectionAllOverhead += p.NormTime - 1
			nCorAll++
		}
	}
	if nDetHot > 0 {
		sum.DetectionHotOverhead /= float64(nDetHot)
	}
	if nCorHot > 0 {
		sum.CorrectionHotOverhead /= float64(nCorHot)
	}
	if nDetAll > 0 {
		sum.DetectionAllOverhead /= float64(nDetAll)
	}
	if nCorAll > 0 {
		sum.CorrectionAllOverhead /= float64(nCorAll)
	}
	return sum
}

// LevelMaps returns per-app hot-object and total-object counts for
// SummarizeFig7.
func LevelMaps(s *Suite, apps []string) (hot, all map[string]int, err error) {
	hot = make(map[string]int, len(apps))
	all = make(map[string]int, len(apps))
	for _, name := range apps {
		app, err := s.App(name)
		if err != nil {
			return nil, nil, err
		}
		hot[name] = app.HotCount
		all[name] = len(app.Objects)
	}
	return hot, all, nil
}
