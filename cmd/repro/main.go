// Command repro regenerates every table and figure of the paper's
// evaluation in one invocation, printing paper-vs-measured rows. The run
// count for the fault-injection figures is configurable; the paper uses
// 1000 runs per configuration (95% CI ±3%). Independent work units fan
// out over -workers goroutines (task progress and an ETA appear on
// stderr); results are bit-identical at any worker count.
//
// Usage:
//
//	repro [-runs 200] [-workers 0] [-fig 2|3|4|6|7|9] [-table 1|2|3] [-scale small] [-csv dir]
//	      [-store-dir dir] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With -store-dir, every figure and table result is persisted to a
// content-addressed on-disk store keyed by the full experiment
// configuration and simulator version: a repeat invocation with the same
// flags answers from the store, byte-identical to a fresh computation.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/store"
	"github.com/datacentric-gpu/dcrm/internal/version"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run() error {
	runs := flag.Int("runs", 200, "fault-injection runs per configuration (paper: 1000)")
	fig := flag.Int("fig", 0, "regenerate a single figure (2,3,4,6,7,9)")
	table := flag.Int("table", 0, "regenerate a single table (1,2,3)")
	csvDir := flag.String("csv", "", "also export figure data as CSV into this directory")
	storeDir := flag.String("store-dir", "", "persist results to this content-addressed store directory (created if missing); repeat runs warm-start from it")
	scale := flag.String("scale", "small", "workload input scale: small, medium, large")
	workers := flag.Int("workers", 0, "experiment fan-out goroutines (0 = GOMAXPROCS); results are identical at any count")
	quiet := flag.Bool("quiet", false, "suppress the stderr progress/ETA reporter")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile (go tool pprof) to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (go tool pprof) to this file")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return nil
	}
	if err := checkSelection(*fig, *table, *runs); err != nil {
		return err
	}
	stopProfiling, err := startProfiling(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiling()
	exportDir = *csvDir

	cfg := experiments.SuiteConfig{Workers: *workers}
	cfg.Progress = experiments.Progress(*quiet, os.Stderr)
	if *storeDir != "" {
		st, err := store.Open(store.Config{Dir: *storeDir})
		if err != nil {
			return err
		}
		cfg.Store = st
	}
	switch *scale {
	case "small":
		cfg.Scale = experiments.ScaleSmall
	case "medium":
		cfg.Scale = experiments.ScaleMedium
	case "large":
		cfg.Scale = experiments.ScaleLarge
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		return err
	}

	all := *fig == 0 && *table == 0
	if all || *table == 1 {
		printTable1()
	}
	if all || *table == 2 {
		if err := printTable2(suite); err != nil {
			return err
		}
	}
	if all || *fig == 2 {
		printFig2()
	}
	if all || *fig == 3 {
		if err := printFig3(suite); err != nil {
			return err
		}
	}
	if all || *fig == 4 {
		if err := printFig4(suite); err != nil {
			return err
		}
	}
	if all || *table == 3 {
		if err := printTable3(suite); err != nil {
			return err
		}
	}
	if all || *fig == 6 {
		if err := printFig6(suite, *runs); err != nil {
			return err
		}
	}
	if all || *fig == 7 {
		if err := printFig7(suite); err != nil {
			return err
		}
	}
	if all || *fig == 9 {
		if err := printFig9(suite, *runs); err != nil {
			return err
		}
	}
	return nil
}

// checkSelection rejects a -fig or -table value that names nothing this
// command prints (0 means the flag is unset), and a -runs value below one:
// the experiment configs read 0 as "use the default", so -runs 0 would
// print "0 runs/config" over a default-sized campaign.
func checkSelection(fig, table, runs int) error {
	switch fig {
	case 0, 2, 3, 4, 6, 7, 9:
	default:
		return fmt.Errorf("unknown figure %d (want 2, 3, 4, 6, 7 or 9)", fig)
	}
	switch table {
	case 0, 1, 2, 3:
	default:
		return fmt.Errorf("unknown table %d (want 1, 2 or 3)", table)
	}
	if runs < 1 {
		return fmt.Errorf("-runs %d: want at least 1 run per configuration", runs)
	}
	return nil
}

// exportDir receives CSV exports when the -csv flag is set.
var exportDir string

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

func section(title string) {
	fmt.Printf("\n================ %s ================\n\n", title)
}

func printTable1() {
	section("Table I — simulated GPU configuration")
	var rows [][]string
	for _, r := range experiments.Table1Config(arch.Default()) {
		rows = append(rows, []string{r.Parameter, r.Value})
	}
	fmt.Print(experiments.RenderTable([]string{"parameter", "value"}, rows))
}

func printTable2(suite *experiments.Suite) error {
	section("Table II — output error metrics")
	t2, err := experiments.Table2ErrorMetrics(suite)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, r := range t2 {
		rows = append(rows, []string{r.App, r.OutputFormat, r.Metric.String(), fmt.Sprintf("%g", r.Threshold)})
	}
	fmt.Print(experiments.RenderTable([]string{"application", "output", "metric", "SDC threshold"}, rows))
	return nil
}

func printFig2() {
	section("Fig. 2 — L2 cache size trend")
	if exportDir != "" {
		if err := experiments.ExportFig2CSV(exportDir); err != nil {
			fmt.Fprintln(os.Stderr, "repro: csv:", err)
		}
	}
	var rows [][]string
	for _, r := range experiments.Fig2L2Trend() {
		rows = append(rows, []string{r.Vendor, r.GPU, fmt.Sprintf("%d", r.Year), fmt.Sprintf("%d", r.L2KB)})
	}
	fmt.Print(experiments.RenderTable([]string{"vendor", "GPU", "year", "L2 (KB)"}, rows))
}

func printFig3(suite *experiments.Suite) error {
	section("Fig. 3 — per-block access profiles")
	results, err := experiments.Fig3AccessProfiles(suite, 40)
	if err != nil {
		return err
	}
	if exportDir != "" {
		if err := experiments.ExportFig3CSV(exportDir, results); err != nil {
			return err
		}
	}
	var rows [][]string
	for _, r := range results {
		shape := "hot knee (a)-(f)"
		if !r.HotPattern {
			shape = "no knee (g)-(h)"
		}
		rows = append(rows, []string{r.App, fmt.Sprintf("%.0f×", r.MaxMinRatio), shape})
	}
	fmt.Print(experiments.RenderTable([]string{"application", "max/min block reads", "profile shape"}, rows))
	return nil
}

func printFig4(suite *experiments.Suite) error {
	section("Fig. 4 — warp sharing of data memory blocks")
	results, err := experiments.Fig4WarpSharing(suite, 40)
	if err != nil {
		return err
	}
	if exportDir != "" {
		if err := experiments.ExportFig4CSV(exportDir, results); err != nil {
			return err
		}
	}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			r.App,
			fmt.Sprintf("%.1f%%", r.Series[0]),
			fmt.Sprintf("%.1f%%", r.Series[len(r.Series)-1]),
		})
	}
	fmt.Print(experiments.RenderTable([]string{"application", "coldest-block share", "hottest-block share"}, rows))
	return nil
}

func printTable3(suite *experiments.Suite) error {
	section("Table III — data-object inventory")
	rows, err := experiments.Table3DataObjects(suite)
	if err != nil {
		return err
	}
	if exportDir != "" {
		if err := experiments.ExportTable3CSV(exportDir, rows); err != nil {
			return err
		}
	}
	var cells [][]string
	for _, r := range rows {
		names := ""
		for i, o := range r.Objects {
			if i > 0 {
				names += ", "
			}
			if o.Hot {
				names += "*"
			}
			names += o.Name
		}
		cells = append(cells, []string{
			r.App, names,
			fmt.Sprintf("%.3f%%", r.HotSizePercent),
			fmt.Sprintf("%.2f%%", r.HotAccessPercent),
		})
	}
	fmt.Print(experiments.RenderTable(
		[]string{"application", "objects by accesses (* = hot)", "hot size", "hot accesses"}, cells))
	return nil
}

func printFig6(suite *experiments.Suite, runs int) error {
	section(fmt.Sprintf("Fig. 6 — hot vs rest vulnerability (%d runs/config)", runs))
	cells, err := experiments.Fig6HotVsRest(suite, experiments.Fig6Config{Runs: runs})
	if err != nil {
		return err
	}
	if exportDir != "" {
		if err := experiments.ExportFig6CSV(exportDir, cells); err != nil {
			return err
		}
	}
	var rows [][]string
	for _, c := range cells {
		rows = append(rows, []string{
			c.App, c.Space, c.Model.String(),
			fmt.Sprintf("%d/%d", c.Result.SDCRuns, c.Result.Runs),
		})
	}
	fmt.Print(experiments.RenderTable([]string{"application", "space", "faults", "SDC"}, rows))
	return nil
}

func printFig7(suite *experiments.Suite) error {
	section("Fig. 7 — performance overhead of the resilience schemes")
	points, err := experiments.Fig7Overhead(suite, experiments.Fig7Config{})
	if err != nil {
		return err
	}
	if exportDir != "" {
		if err := experiments.ExportFig7CSV(exportDir, points); err != nil {
			return err
		}
	}
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			p.App, p.Scheme.String(), fmt.Sprintf("%d", p.Level),
			fmt.Sprintf("%.4f", p.NormTime), fmt.Sprintf("%.4f", p.NormMisses),
		})
	}
	fmt.Print(experiments.RenderTable(
		[]string{"application", "scheme", "objects", "norm time", "norm L1 misses"}, rows))
	hot, allLv, err := experiments.LevelMaps(suite, suite.EvaluatedNames())
	if err != nil {
		return err
	}
	sum := experiments.SummarizeFig7(points, hot, allLv)
	fmt.Printf("\npaper vs measured averages:\n")
	fmt.Printf("  detection  hot-only: paper +1.2%%   measured %+.2f%%\n", 100*sum.DetectionHotOverhead)
	fmt.Printf("  correction hot-only: paper +3.4%%   measured %+.2f%%\n", 100*sum.CorrectionHotOverhead)
	fmt.Printf("  detection  all:      paper +40.65%% measured %+.2f%%\n", 100*sum.DetectionAllOverhead)
	fmt.Printf("  correction all:      paper +74.24%% measured %+.2f%%\n", 100*sum.CorrectionAllOverhead)
	return nil
}

func printFig9(suite *experiments.Suite, runs int) error {
	section(fmt.Sprintf("Fig. 9 — SDC vs protection level (%d runs/config)", runs))
	cells, err := experiments.Fig9Resilience(suite, experiments.Fig9Config{Runs: runs})
	if err != nil {
		return err
	}
	if exportDir != "" {
		if err := experiments.ExportFig9CSV(exportDir, cells); err != nil {
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
			fmt.Sprintf("%d/%d", c.Result.SDCRuns, c.Result.Runs),
			fmt.Sprintf("%d", c.Result.DetectedRuns),
		})
	}
	fmt.Print(experiments.RenderTable(
		[]string{"application", "scheme", "objects", "faults", "SDC", "detected"}, rows))

	hot := map[string]int{}
	for _, name := range suite.EvaluatedNames() {
		app, err := suite.App(name)
		if err != nil {
			return err
		}
		hot[name] = app.HotCount
	}
	fmt.Printf("\nSDC drop with hot-object protection: paper 98.97%%, measured %.2f%%\n",
		experiments.SDCDropPercent(cells, hot))
	return nil
}
