// Command faultinject reproduces Fig. 6: fault-injection campaigns
// comparing the vulnerability of hot memory blocks against the rest of the
// application's memory, with no protection scheme enabled.
//
// Usage:
//
//	faultinject [-runs 1000] [-apps P-BICG,A-Laplacian] [-seed 7] [-workers 0]
//	            [-quiet] [-model spec[;spec...]] [-breakdown] [-csv dir] [-store-dir dir]
//	            [-metrics-out metrics.txt] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Campaign progress (completed configurations, elapsed time, ETA) is
// reported on stderr; -quiet silences it. Results on stdout are
// byte-identical either way. With -csv the result cells are also exported
// as CSV (parent directories are created as needed); with -store-dir the
// campaign result is persisted to a content-addressed store so a repeat
// invocation with the same configuration answers without recomputing. The
// store also keeps the checkpoint artifacts (goldens, batched-replay
// captures, store timelines) each campaign builds on first use, so a later
// invocation with another seed or run count fetches them from disk instead
// of recomputing. -metrics-out writes a Prometheus snapshot of the
// process's internal telemetry (including the
// dcrm_artifact_{requests,computed}_total counters that prove a warm start
// recomputed nothing) at exit.
//
// -model selects the fault models swept, as semicolon-separated registry
// specs ("stuck-at:bits=3,blocks=1;transient:flips=2"); see
// docs/FAULT-MODELS.md for the catalog. -breakdown switches from the
// Fig. 6 hot-vs-rest experiment to the fault-model × scheme outcome
// breakdown over all ten applications, reporting the full outcome
// taxonomy including detected-uncorrectable (DUE) runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/store"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
	"github.com/datacentric-gpu/dcrm/internal/version"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "faultinject:", err)
		os.Exit(1)
	}
}

func run() error {
	runs := flag.Int("runs", 1000, "fault-injection runs per configuration (paper: 1000)")
	apps := flag.String("apps", "", "comma-separated applications (default: the evaluated eight; -breakdown: all ten)")
	seed := flag.Int64("seed", 7, "campaign seed")
	workers := flag.Int("workers", 0, "experiment fan-out goroutines (0 = GOMAXPROCS); results are identical at any count")
	quiet := flag.Bool("quiet", false, "suppress the stderr progress line")
	modelSpec := flag.String("model", "", "semicolon-separated fault-model specs, e.g. \"stuck-at:bits=3;transient:flips=2\" (default: the experiment's own sweep; known models: "+strings.Join(fault.ModelNames(), ", ")+")")
	breakdown := flag.Bool("breakdown", false, "run the fault-model × scheme outcome breakdown instead of Fig. 6")
	csvDir := flag.String("csv", "", "also export the result cells as CSV into this directory (created if missing)")
	storeDir := flag.String("store-dir", "", "persist results to this content-addressed store directory (created if missing); repeat runs warm-start from it")
	metricsOut := flag.String("metrics-out", "", "write a Prometheus snapshot of internal telemetry to this file at exit")
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

	var models []fault.Model
	if *modelSpec != "" {
		var err error
		if models, err = fault.ParseModels(*modelSpec); err != nil {
			return err
		}
	}

	scfg := experiments.SuiteConfig{
		Workers:  *workers,
		Progress: experiments.Progress(*quiet, os.Stderr),
	}
	var reg *telemetry.Registry
	if *metricsOut != "" {
		reg = telemetry.NewRegistry()
		scfg.Telemetry = reg
	}
	if *storeDir != "" {
		st, err := store.Open(store.Config{Dir: *storeDir, Telemetry: reg})
		if err != nil {
			return err
		}
		scfg.Store = st
	}
	suite, err := experiments.NewSuite(scfg)
	if err != nil {
		return err
	}
	if *metricsOut != "" {
		defer func() {
			if werr := writeMetrics(*metricsOut, reg); werr != nil {
				fmt.Fprintln(os.Stderr, "faultinject: metrics-out:", werr)
			}
		}()
	}
	var appList []string
	if *apps != "" {
		appList = strings.Split(*apps, ",")
	}

	if *breakdown {
		bcfg := experiments.BreakdownConfig{
			Runs: *runs, Seed: *seed, Models: models, Apps: appList,
		}
		return runBreakdown(suite, bcfg, *csvDir)
	}
	fcfg := experiments.Fig6Config{
		Runs: *runs, Seed: *seed, Models: models, Apps: appList,
	}
	return runFig6(suite, fcfg, *csvDir)
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

// writeMetrics snapshots the telemetry registry in Prometheus text format.
func writeMetrics(path string, reg *telemetry.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

// runFig6 runs the hot-vs-rest campaign and renders its table.
func runFig6(suite *experiments.Suite, cfg experiments.Fig6Config, csvDir string) error {
	fmt.Printf("Fig. 6 — SDC outcomes out of %d runs: hot blocks vs rest of memory\n\n", cfg.Runs)
	cells, err := experiments.Fig6HotVsRest(suite, cfg)
	if err != nil {
		return err
	}
	if csvDir != "" {
		if err := experiments.ExportFig6CSV(csvDir, cells); err != nil {
			return err
		}
	}
	var rows [][]string
	for _, c := range cells {
		rows = append(rows, []string{
			c.App, c.Space, c.Model.String(),
			fmt.Sprintf("%d", c.Result.SDCRuns),
			fmt.Sprintf("%d", c.Result.MaskedRuns),
			fmt.Sprintf("%d", c.Result.CrashedRuns),
			fmt.Sprintf("±%.1f%%", 100*c.Result.ConfidenceHalfWidth()),
		})
	}
	fmt.Print(experiments.RenderTable(
		[]string{"application", "space", "faults", "SDC", "masked", "crashed", "95% CI"}, rows))
	return nil
}

// runBreakdown runs the fault-model × scheme outcome breakdown and renders
// the full outcome distribution, one row per (application, scheme, model)
// cell, in the canonical outcome order (DUE included).
func runBreakdown(suite *experiments.Suite, cfg experiments.BreakdownConfig, csvDir string) error {
	fmt.Printf("Fault-model × scheme outcome breakdown — %d runs per cell\n\n", cfg.Runs)
	cells, err := experiments.FaultModelBreakdown(suite, cfg)
	if err != nil {
		return err
	}
	if csvDir != "" {
		if err := experiments.ExportBreakdownCSV(csvDir, cells); err != nil {
			return err
		}
	}
	header := []string{"application", "scheme", "model"}
	for _, o := range fault.Outcomes() {
		header = append(header, o.String())
	}
	header = append(header, "95% CI")
	var rows [][]string
	for _, c := range cells {
		scheme := c.Scheme.String()
		if c.Level == 0 {
			scheme = "baseline"
		}
		row := []string{c.App, scheme, c.Model.String()}
		for _, o := range fault.Outcomes() {
			row = append(row, fmt.Sprintf("%d", c.Result.Count(o)))
		}
		row = append(row, fmt.Sprintf("±%.1f%%", 100*c.Result.ConfidenceHalfWidth()))
		rows = append(rows, row)
	}
	fmt.Print(experiments.RenderTable(header, rows))
	return nil
}
