// Command repro regenerates the paper's evaluation. Without a verb it
// prints every table and figure in one invocation as paper-vs-measured
// rows; the verbs run one stage of the pipeline with its own knobs:
//
//	repro [-runs 200] [-fig 2|3|4|6|7|9] [-table 1|2|3] [-csv dir]
//	repro profile [-list | -warps | -objects | -series APP] [-points 40]
//	repro inject [-runs 1000] [-apps A,B] [-seed 7] [-model spec[;spec...]] [-breakdown] [-csv dir]
//	repro resilience [-perf] [-sdc] [-runs 1000] [-apps A,B] [-seed 11] [-csv dir]
//	repro sim [-app P-BICG] [-scheme none|detection|correction] [-level -1] [-scheduler gto|lrr] [-trace out.json]
//
// Every form also takes the suite flags:
//
//	[-workers 0] [-store-dir dir] [-scale small|medium|large] [-quiet]
//	[-metrics-out metrics.txt] [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-version]
//
// Independent work units fan out over -workers goroutines (task progress
// and an ETA appear on stderr unless -quiet); results are bit-identical at
// any worker count. The fault-injection run count is configurable; the
// paper uses 1000 runs per configuration (95% CI ±3%). With -store-dir,
// every figure result and the checkpoint artifacts the campaigns build
// (golden runs with their recordings, and exposure replays, whose miss
// weights and store timelines serve both Fig. 9 and the transient models)
// persist in a content-addressed on-disk store keyed by the full
// configuration and simulator version, so a repeat invocation answers
// from the store, byte-identical to a fresh computation, and a campaign
// with another seed or run count fetches its artifacts from disk.
// -metrics-out writes a Prometheus snapshot of the process's telemetry at
// exit, including the dcrm_artifact_{requests,computed}_total counters
// that prove a warm start recomputed nothing. With -csv, the result data is also exported as CSV.
// Every output flag creates the directories its path needs.
//
// inject's -model takes semicolon-separated fault-model registry specs
// ("stuck-at:bits=3,blocks=1;transient:flips=2"; see docs/FAULT-MODELS.md),
// and -breakdown switches from Fig. 6's hot-vs-rest experiment to the
// fault-model × scheme outcome breakdown over all ten applications, DUE
// runs included. resilience runs the Fig. 7 overhead sweep (-perf) and the
// Fig. 9 campaigns (-sdc), both when neither is given. sim prints one
// application's per-kernel timing statistics; -trace writes a Chrome
// trace_event timeline and always simulates, since a stored result has no
// timeline to record.
//
// Usage errors (an unknown verb, a positional argument, an undefined flag)
// exit 2; failures exit 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/store"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
	"github.com/datacentric-gpu/dcrm/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// command is one form of repro: the verb-less figures build or a verb.
type command interface {
	// register defines the command's own flags on fs.
	register(fs *flag.FlagSet)
	// check validates the parsed flags before any suite is built.
	check() error
	// run prints the command's results to w.
	run(s *experiments.Suite, w io.Writer) error
}

// verbs lists repro's subcommands in usage order.
var verbs = []struct {
	name, summary string
	new           func() command
}{
	{"profile", "access-pattern analysis: Figs. 3-4 and Table III", func() command { return new(profileCmd) }},
	{"inject", "Fig. 6 fault-injection campaigns and the outcome breakdown", func() command { return new(injectCmd) }},
	{"resilience", "Fig. 7 overhead sweep and Fig. 9 campaigns", func() command { return new(resilienceCmd) }},
	{"sim", "one application on the timing simulator", func() command { return new(simCmd) }},
}

// run executes one repro invocation and returns its exit status: 0 on
// success or -h, 2 for a usage error, 1 for a failure.
func run(args []string, stdout, stderr io.Writer) int {
	name, cmd := "repro", command(new(figuresCmd))
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd = nil
		for _, v := range verbs {
			if v.name == args[0] {
				name, cmd = "repro "+v.name, v.new()
			}
		}
		if cmd == nil {
			fmt.Fprintf(stderr, "repro: unknown verb %q (want profile, inject, resilience or sim)\n", args[0])
			return 2
		}
		args = args[1:]
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(fs) }
	var sf suiteFlags
	sf.register(fs)
	cmd.register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "%s: unexpected argument %q\n", name, fs.Arg(0))
		return 2
	}
	if sf.version {
		fmt.Fprintln(stdout, version.String())
		return 0
	}
	err := cmd.check()
	if err == nil {
		err = sf.withSuite(stderr, func(s *experiments.Suite) error { return cmd.run(s, stdout) })
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 1
	}
	return 0
}

func usage(fs *flag.FlagSet) {
	w := fs.Output()
	fmt.Fprintf(w, "usage: %s [flags]\n", fs.Name())
	if fs.Name() == "repro" {
		fmt.Fprintln(w, "\nWithout a verb, repro prints every table and figure. Verbs:")
		for _, v := range verbs {
			fmt.Fprintf(w, "  %-11s %s\n", v.name, v.summary)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "flags:")
	fs.PrintDefaults()
}

// suiteFlags are the flags every command shares: they size, persist,
// observe and profile the one experiments.Suite each invocation builds.
type suiteFlags struct {
	workers                     int
	storeDir, scale, metricsOut string
	cpuProfile, memProfile      string
	quiet, version              bool
}

func (f *suiteFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&f.workers, "workers", 0, "experiment fan-out goroutines (0 = GOMAXPROCS); results are identical at any count")
	fs.StringVar(&f.storeDir, "store-dir", "", "persist results to this content-addressed store directory (created if missing); repeat runs warm-start from it")
	fs.StringVar(&f.scale, "scale", "small", "workload input scale: small, medium, large")
	fs.BoolVar(&f.quiet, "quiet", false, "suppress the stderr progress/ETA reporter")
	fs.StringVar(&f.metricsOut, "metrics-out", "", "write a Prometheus snapshot of internal telemetry to this file at exit")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile (go tool pprof) to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a heap profile (go tool pprof) to this file")
	fs.BoolVar(&f.version, "version", false, "print version and exit")
}

// withSuite builds the suite the flags describe — its store, telemetry
// registry, progress reporter and pprof profiles — and runs body on it.
// Profiles, once started, are finalized and, once the suite is built, the
// metrics snapshot is written, whether or not body failed.
func (f *suiteFlags) withSuite(stderr io.Writer, body func(*experiments.Suite) error) (err error) {
	scale, err := experiments.ParseScale(f.scale)
	if err != nil {
		return err
	}
	cfg := experiments.SuiteConfig{
		Workers:  f.workers,
		Scale:    scale,
		Progress: experiments.Progress(f.quiet, stderr),
	}
	if f.metricsOut != "" {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	stop, err := startProfiling(f.cpuProfile, f.memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()
	if f.storeDir != "" {
		st, err := store.Open(store.Config{Dir: f.storeDir, Telemetry: cfg.Telemetry})
		if err != nil {
			return err
		}
		cfg.Store = st
	}
	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		return err
	}
	err = body(suite)
	if f.metricsOut != "" {
		err = errors.Join(err, writeFile(f.metricsOut, cfg.Telemetry.WritePrometheus))
	}
	return err
}

// checkRuns rejects a -runs value below one. The experiment configs read 0
// as "use the default", so -runs 0 would report zero runs over a
// default-sized campaign.
func checkRuns(runs int) error {
	if runs < 1 {
		return fmt.Errorf("-runs %d: want at least 1 run per configuration", runs)
	}
	return nil
}

// splitApps parses an -apps list; empty means the experiment's default set.
func splitApps(apps string) []string {
	if apps == "" {
		return nil
	}
	return strings.Split(apps, ",")
}

// create creates the output file path and its parent directories as
// needed: every output flag may name a directory that does not exist yet.
func create(path string) (*os.File, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return os.Create(path)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startProfiling starts a CPU profile and arranges a heap profile snapshot,
// as requested; the returned stop function finalizes both.
func startProfiling(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		return writeFile(memPath, func(w io.Writer) error {
			runtime.GC() // flush unreachable objects so the profile shows live heap
			return pprof.WriteHeapProfile(w)
		})
	}, nil
}
