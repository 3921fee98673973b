// Command dcrmbench is the repository benchmark. It drives the library's
// public functions through three batch workloads, checks every output, and
// prints the end-to-end metrics (tracing off) or the per-layer metrics (a
// separate traced run) as one JSON object on the last line of standard
// output:
//
//	bash dcrmbench/run.sh --workload figures|campaign|timing|all \
//	    --seed N --seconds S --trace 0|1
//
// Each workload is a closed loop: a pass submits a fixed set of work and
// waits for all of it, and passes repeat until --seconds have elapsed (at
// least one pass). Every program setting stays at its default, as with
// cmd/repro given no flags, so the benchmark judges the path users get.
// The workload seed derives only campaign seeds; the suite seed stays at
// its default because the C-NN inputs and the golden replay statistics
// depend on it. README.md lists every metric and the layer each one
// measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, printed with tracing
// off. Every workload measures each of them, so each is bounded per
// workload in BENCHMARK.json.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics printed by a traced run. A layer that does no
// work in a workload reads 0 there. The first block holds the workload-level
// figures that exist in only one or two workloads (measured in the traced
// run's untraced pass); the rest are single layers.
var perLayer = []metricDef{
	{"failed_frac", "ratio"},
	{"hot_runs_per_s", "runs/s"},
	{"wide_runs_per_s", "runs/s"},
	{"restart_s", "s"},
	{"store_disk_mb", "MB"},
	{"sim_kinstr_per_s", "kinstr/s"},
	{"sdc_drop_err_pp", "pp"},
	{"det_overhead_err_pp", "pp"},
	{"corr_overhead_err_pp", "pp"},

	{"nn.train_s", "s"},
	{"profile.collect_s", "s"},
	{"core.plan_s", "s"},
	{"kernels.golden_s", "s"},
	{"kernels.trace_s", "s"},
	{"simt.capture_s", "s"},
	{"timing.replay_s", "s"},
	{"timing.replays", "count"},
	{"timing.missweight_s", "s"},
	{"timing.host_ns_per_instr", "ns"},
	{"timing.allocs_per_kernel", "count"},
	{"timing.warp_instr", "count"},
	{"timing.sim_cycles", "cycles"},
	{"timing.copy_transactions", "count"},
	{"timing.compare_stalls", "count"},
	{"cache.l1_read_misses", "count"},
	{"cache.l2_read_misses", "count"},
	{"dram.row_hit_frac", "ratio"},
	{"noc.requests", "count"},
	{"fault.hot_campaign_s", "s"},
	{"fault.wide_campaign_s", "s"},
	{"fault.rest_campaign_s", "s"},
	{"fault.runs", "count"},
	{"fault.sdc_runs", "count"},
	{"fault.detected_runs", "count"},
	{"fault.masked_runs", "count"},
	{"fault.crashed_runs", "count"},
	{"experiments.table2_s", "s"},
	{"experiments.table3_s", "s"},
	{"experiments.fig3_s", "s"},
	{"experiments.fig4_s", "s"},
	{"experiments.fig6_s", "s"},
	{"experiments.fig7_s", "s"},
	{"experiments.fig9_s", "s"},
	{"experiments.pool_busy_frac", "ratio"},
	{"experiments.pruned_frac", "ratio"},
	{"experiments.batch_occupancy", "lanes"},
	{"experiments.applied_warp_frac", "ratio"},
	{"experiments.fallback_frac", "ratio"},
	{"mem.block_copies_per_run", "count"},
	{"mem.forks", "count"},
	{"store.restart_load_s", "s"},
	{"store.disk_hits", "count"},
	{"store.computes", "count"},
	{"store.mem_evictions", "count"},
	{"store.artifact_recomputes", "count"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.span_coverage_frac", "ratio"},
}

// workloads maps each workload name to the function that runs it: set-up,
// passes and checks, recording metrics into the report.
var workloads = map[string]func(o options, r *report) error{
	"figures":  runFigures,
	"campaign": runCampaign,
	"timing":   runTiming,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"figures", "campaign", "timing"}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks every workload to a few applications and runs so the
	// benchmark's own test can exercise all of it in seconds.
	smoke bool
	// wrongRef perturbs every reference the output checks compare against,
	// so a test can see the checks fail.
	wrongRef bool
	// workDir holds campaign stores and traced runs' Chrome traces.
	workDir string
	// repoRoot locates the committed golden replay statistics.
	repoRoot string
}

// tracePath is where a traced run writes its Chrome trace_event timeline.
func (o options) tracePath() string {
	return filepath.Join(o.workDir, "trace-"+o.workload+".json")
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("dcrmbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "figures, campaign, timing, or all")
	seed := fs.Int64("seed", 1, "workload seed (derives campaign seeds only)")
	seconds := fs.Float64("seconds", 10, "measurement window per run in seconds (at least one pass runs)")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run; 0 prints end-to-end metrics")
	smoke := fs.Bool("smoke", false, "tiny sizes, for the benchmark's own test")
	wrongRef := fs.Bool("wrong-reference", false, "perturb every check reference (the checks must then fail)")
	workDir := fs.String("workdir", ".bench_build", "directory for campaign stores and trace-<workload>.json files")
	repoRoot := fs.String("repo", ".", "repository root (for internal/experiments/testdata)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[*workload]; !ok && *workload != "all" {
		return options{}, fmt.Errorf("--workload must be figures, campaign, timing or all, not %q", *workload)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if *seconds <= 0 {
		return options{}, fmt.Errorf("--seconds must be positive, not %g", *seconds)
	}
	return options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		smoke: *smoke, wrongRef: *wrongRef, workDir: *workDir, repoRoot: *repoRoot,
	}, nil
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcrmbench:", err)
		os.Exit(2)
	}
	if o.workload == "all" {
		if err := runAll(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "dcrmbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcrmbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcrmbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in its own process, one after another, so each
// gets a fresh heap and its own peak-RSS reading. Each child prints its own
// report and JSON line.
func runAll(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloadOrder {
		cmd := exec.Command(self, append(append([]string(nil), args...), "--workload", w)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w, err)
		}
	}
	return nil
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one workload and returns its result; the human-readable
// report goes to w.
func run(o options, w io.Writer) (result, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return result{}, err
	}
	r := newReport()
	fmt.Fprintf(w, "# dcrmbench workload=%s seed=%d seconds=%g trace=%t smoke=%t\n",
		o.workload, o.seed, o.seconds, o.trace, o.smoke)
	fmt.Fprintf(w, "# host %s\n", hostInfo())
	if err := workloads[o.workload](o, r); err != nil {
		return result{}, err
	}
	r.set("peak_rss_mb", peakRSSMB())
	r.set("failed_frac", r.failedFrac())

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	r.print(w, o.trace)
	res := result{Attempted: r.attempted(), Failed: r.failedCount(), Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0
	for _, d := range defs {
		v := r.get(d.name)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %g", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// report collects one run's operations, failures and metric values. Safe
// for concurrent use.
type report struct {
	mu       sync.Mutex
	ops      map[string]bool // attempted operations; true once failed
	failures []string
	values   map[string]float64
}

func newReport() *report {
	return &report{ops: map[string]bool{}, values: map[string]float64{}}
}

// attempt records one operation (a figure build, a campaign, a replay)
// under a unique key; err marks it failed.
func (r *report) attempt(key string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ops[key]; !ok {
		r.ops[key] = false
	}
	if err != nil {
		r.failLocked(key, err.Error())
	}
}

// fail marks an operation failed: an output of it did not check out.
func (r *report) fail(key, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(key, fmt.Sprintf(format, args...))
}

func (r *report) failLocked(key, msg string) {
	r.ops[key] = true
	r.failures = append(r.failures, key+": "+msg)
}

func (r *report) attempted() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

func (r *report) failedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, failed := range r.ops {
		if failed {
			n++
		}
	}
	return n
}

func (r *report) failedFrac() float64 {
	a := r.attempted()
	if a == 0 {
		return 1
	}
	return float64(r.failedCount()) / float64(a)
}

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

func (r *report) get(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.values[name]
}

// print writes the human-readable report: failures, then every metric the
// run measured, end-to-end first.
func (r *report) print(w io.Writer, traced bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	for _, n := range names {
		fmt.Fprintf(w, "# %s %-28s %14.6g %s\n", kind, n, r.values[n], units[n])
	}
}

// hostInfo renders the host metadata printed with every result, so runs
// from different hosts are never read as like-for-like.
func hostInfo() string {
	b, _ := json.Marshal(map[string]any{
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	})
	return string(b)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's total OS reservation where /proc is missing.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// closedLoop runs passes until their measured time reaches the window, at
// least once, and returns the wall clock each pass reports for its measured
// region in seconds. Set-up and checks between passes do not count, so the
// number of passes depends only on how long the measured work takes.
func closedLoop(seconds float64, pass func(i int) (float64, error)) ([]float64, error) {
	var walls []float64
	measured := 0.0
	for i := 0; i == 0 || measured < seconds; i++ {
		wall, err := pass(i)
		if err != nil {
			return walls, err
		}
		walls = append(walls, wall)
		measured += wall
	}
	return walls, nil
}
