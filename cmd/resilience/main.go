// Command resilience reproduces the paper's evaluation of the two
// protection schemes: the Fig. 7 performance-overhead sweep (-perf) and the
// Fig. 9 SDC-reduction campaigns (-sdc).
//
// Usage:
//
//	resilience -perf [-apps …] [-workers 0] [-csv dir] [-store-dir dir] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	resilience -sdc [-runs 1000] [-apps …] [-workers 0] [-csv dir] [-store-dir dir] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With -csv the Fig. 7 points and Fig. 9 cells are also exported as CSV
// (parent directories are created as needed); with -store-dir results are
// persisted to a content-addressed store so a repeat invocation with the
// same configuration answers without recomputing, and the Fig. 9
// checkpoint artifacts (goldens, captures, miss weights) the campaigns
// build on first use persist with them, so a later invocation with another
// seed or run count fetches them from disk.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/store"
	"github.com/datacentric-gpu/dcrm/internal/version"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "resilience:", err)
		os.Exit(1)
	}
}

func run() error {
	perf := flag.Bool("perf", false, "run the Fig. 7 performance sweep")
	sdc := flag.Bool("sdc", false, "run the Fig. 9 resilience campaigns")
	runs := flag.Int("runs", 1000, "fault-injection runs per configuration (Fig. 9)")
	apps := flag.String("apps", "", "comma-separated applications (default: the evaluated eight)")
	seed := flag.Int64("seed", 11, "campaign seed")
	workers := flag.Int("workers", 0, "experiment fan-out goroutines (0 = GOMAXPROCS); results are identical at any count")
	csvDir := flag.String("csv", "", "also export figure data as CSV into this directory (created if missing)")
	storeDir := flag.String("store-dir", "", "persist results to this content-addressed store directory (created if missing); repeat runs warm-start from it")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile (go tool pprof) to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (go tool pprof) to this file")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return nil
	}
	if err := checkRuns(*runs); err != nil {
		return err
	}
	stopProfiling, err := startProfiling(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiling()
	if !*perf && !*sdc {
		*perf, *sdc = true, true
	}

	scfg := experiments.SuiteConfig{Workers: *workers}
	if *storeDir != "" {
		st, err := store.Open(store.Config{Dir: *storeDir})
		if err != nil {
			return err
		}
		scfg.Store = st
	}
	suite, err := experiments.NewSuite(scfg)
	if err != nil {
		return err
	}
	var appList []string
	if *apps != "" {
		appList = strings.Split(*apps, ",")
	} else {
		appList = suite.EvaluatedNames()
	}

	if *perf {
		if err := runPerf(suite, appList, *csvDir); err != nil {
			return err
		}
	}
	if *sdc {
		if err := runSDC(suite, appList, *runs, *seed, *csvDir); err != nil {
			return err
		}
	}
	return nil
}

// checkRuns rejects a -runs value below one. The experiment configs read 0
// as "use the default", so -runs 0 would print "out of 0 runs" over a
// default-sized campaign.
func checkRuns(runs int) error {
	if runs < 1 {
		return fmt.Errorf("-runs %d: want at least 1 run per configuration", runs)
	}
	return nil
}

// startProfiling starts a CPU profile and arranges a heap profile snapshot,
// as requested; the returned stop function finalizes both and must run
// before process exit.
func startProfiling(cpuPath, memPath string) (stop func(), err error) {
	stop = func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if memPath != "" {
		cpuStop := stop
		stop = func() {
			cpuStop()
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush unreachable objects so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}
	return stop, nil
}

func runPerf(suite *experiments.Suite, apps []string, csvDir string) error {
	fmt.Println("Fig. 7 — execution time and L1-missed accesses, normalized to baseline")
	points, err := experiments.Fig7Overhead(suite, experiments.Fig7Config{Apps: apps})
	if err != nil {
		return err
	}
	if csvDir != "" {
		if err := experiments.ExportFig7CSV(csvDir, points); err != nil {
			return err
		}
	}
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			p.App, p.Scheme.String(), fmt.Sprintf("%d", p.Level),
			fmt.Sprintf("%d", p.Cycles),
			fmt.Sprintf("%.4f", p.NormTime),
			fmt.Sprintf("%.4f", p.NormMisses),
		})
	}
	fmt.Print(experiments.RenderTable(
		[]string{"application", "scheme", "objects", "cycles", "norm time", "norm L1 misses"}, rows))

	hot, all, err := experiments.LevelMaps(suite, apps)
	if err != nil {
		return err
	}
	sum := experiments.SummarizeFig7(points, hot, all)
	fmt.Printf("\nAverages (paper: detection 1.2%%/40.65%%, correction 3.4%%/74.24%%):\n")
	fmt.Printf("  detection  hot-only %+.2f%%   all objects %+.2f%%\n",
		100*sum.DetectionHotOverhead, 100*sum.DetectionAllOverhead)
	fmt.Printf("  correction hot-only %+.2f%%   all objects %+.2f%%\n\n",
		100*sum.CorrectionHotOverhead, 100*sum.CorrectionAllOverhead)
	return nil
}

func runSDC(suite *experiments.Suite, apps []string, runs int, seed int64, csvDir string) error {
	fmt.Printf("Fig. 9 — SDC outcomes out of %d runs, whole-space L1-miss-weighted injection\n\n", runs)
	cells, err := experiments.Fig9Resilience(suite, experiments.Fig9Config{
		Runs: runs, Seed: seed, Apps: apps,
	})
	if err != nil {
		return err
	}
	if csvDir != "" {
		if err := experiments.ExportFig9CSV(csvDir, cells); err != nil {
			return err
		}
	}
	var rows [][]string
	for _, c := range cells {
		scheme := c.Scheme.String()
		if c.Scheme == core.None {
			scheme = "baseline"
		}
		rows = append(rows, []string{
			c.App, scheme, fmt.Sprintf("%d", c.Level), c.Model.String(),
			fmt.Sprintf("%d", c.Result.SDCRuns),
			fmt.Sprintf("%d", c.Result.DetectedRuns),
			fmt.Sprintf("%d", c.Result.MaskedRuns),
			fmt.Sprintf("%d", c.Result.CrashedRuns),
		})
	}
	fmt.Print(experiments.RenderTable(
		[]string{"application", "scheme", "objects", "faults", "SDC", "detected", "masked", "crashed"}, rows))

	hot := make(map[string]int, len(apps))
	for _, name := range apps {
		app, err := suite.App(name)
		if err != nil {
			return err
		}
		hot[name] = app.HotCount
	}
	fmt.Printf("\nAverage SDC drop with hot-object protection: %.2f%% (paper: 98.97%%)\n",
		experiments.SDCDropPercent(cells, hot))
	return nil
}
