// Command gpusim runs one GPGPU application on the cycle-level timing
// simulator and prints per-kernel statistics.
//
// Usage:
//
//	gpusim -app P-BICG [-scheme none|detection|correction] [-level N] [-scheduler gto|lrr] [-trace out.json]
//	       [-store-dir dir] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With -store-dir, the run's statistics are persisted to a
// content-addressed store: a repeat invocation with the same configuration
// answers from the store without re-simulating. Requesting a Chrome trace
// (-trace) forces a live simulation — a stored result has no timeline to
// record.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/store"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
	"github.com/datacentric-gpu/dcrm/internal/timing"
	"github.com/datacentric-gpu/dcrm/internal/version"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gpusim:", err)
		os.Exit(1)
	}
}

func run() error {
	appName := flag.String("app", "P-BICG", "application (see cmd/profiler -list)")
	schemeName := flag.String("scheme", "none", "protection scheme: none, detection, correction")
	level := flag.Int("level", -1, "protected data objects, cumulative (-1 = hot objects)")
	scheduler := flag.String("scheduler", "gto", "warp scheduler: gto or lrr")
	traceFile := flag.String("trace", "", "write a Chrome trace_event timeline (load in chrome://tracing or Perfetto) to this file")
	storeDir := flag.String("store-dir", "", "persist run statistics to this content-addressed store directory (created if missing); repeat runs warm-start from it")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile (go tool pprof) to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (go tool pprof) to this file")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return nil
	}
	policy, err := parseScheduler(*scheduler)
	if err != nil {
		return err
	}
	stopProfiling, err := startProfiling(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiling()

	var scfg experiments.SuiteConfig
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
	app, err := suite.App(*appName)
	if err != nil {
		return err
	}

	var scheme core.Scheme
	switch *schemeName {
	case "none":
		scheme = core.None
	case "detection":
		scheme = core.Detection
	case "correction":
		scheme = core.Correction
	default:
		return fmt.Errorf("unknown scheme %q", *schemeName)
	}
	lvl := *level
	if lvl < 0 {
		lvl = app.HotCount
	}

	_, plan, err := suite.PlanFor(*appName, scheme, lvl)
	if err != nil {
		return err
	}
	if plan != nil {
		fmt.Println("Protection:", plan.Describe())
	} else {
		fmt.Println("Protection: baseline (no protection)")
	}
	var st timing.AppStats
	if *traceFile == "" {
		// Serve through the suite's result store: with -store-dir a repeat
		// invocation of the same configuration answers without simulating.
		st, err = experiments.Simulate(suite, experiments.SimConfig{
			App: app.Name, Scheme: scheme, Level: lvl, Policy: policy,
		})
		if err != nil {
			return err
		}
	} else {
		// A Chrome trace needs a live engine attachment, so this path always
		// simulates.
		fmt.Printf("Tracing %s (functional run)…\n", app.Name)
		traces, err := app.TraceRun(nil)
		if err != nil {
			return err
		}
		var tplan timing.ProtectionPlan
		if plan != nil {
			tplan = plan
		}
		eng, err := timing.New(arch.Default(), tplan)
		if err != nil {
			return err
		}
		eng.Policy = policy
		eng.Trace = telemetry.NewTrace()
		st, err = eng.RunApp(app.Name, traces)
		if err != nil {
			return err
		}
		if err := writeTrace(*traceFile, eng.Trace); err != nil {
			return err
		}
		fmt.Printf("Wrote %d trace events to %s\n", eng.Trace.Len(), *traceFile)
	}

	var rows [][]string
	for _, k := range st.Kernels {
		rows = append(rows, []string{
			k.Kernel,
			fmt.Sprintf("%d", k.Cycles),
			fmt.Sprintf("%d", k.Instructions),
			fmt.Sprintf("%d", k.L1.Reads),
			fmt.Sprintf("%d", k.L1.ReadMisses),
			fmt.Sprintf("%.1f%%", 100*k.L1.ReadHitRate()),
			fmt.Sprintf("%.1f%%", 100*k.L2.ReadHitRate()),
			fmt.Sprintf("%d", k.DRAM.Served),
			fmt.Sprintf("%d", k.CopyTransactions),
		})
	}
	fmt.Print(experiments.RenderTable(
		[]string{"kernel", "cycles", "instrs", "L1 reads", "L1 misses", "L1 hit", "L2 hit", "DRAM", "copy tx"},
		rows,
	))
	fmt.Printf("\nTotal: %d cycles, %d L1-missed accesses, IPC %.2f\n",
		st.TotalCycles(), st.TotalL1Misses(),
		float64(st.TotalInstructions())/float64(st.TotalCycles()))
	if plan != nil {
		c := plan.Cost()
		fmt.Printf("Hardware cost: %d B tables, %d-bit comparator, %d B replica DRAM\n",
			c.AddrTableBytes+c.LoadTableBytes+c.CompareBufferBytes, c.ComparatorBits, c.ReplicaBytes)
	}
	return nil
}

// parseScheduler maps the -scheduler flag to a warp-scheduling policy,
// rejecting anything but the two the engine implements.
func parseScheduler(name string) (timing.SchedulerPolicy, error) {
	switch name {
	case "gto":
		return timing.GTO, nil
	case "lrr":
		return timing.LRR, nil
	}
	return 0, fmt.Errorf("unknown scheduler %q (want gto or lrr)", name)
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

// writeTrace serializes the engine's Chrome trace to path, creating parent
// directories as needed (matching how repro and the CSV exporters treat
// output paths).
func writeTrace(path string, tr *telemetry.Trace) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
