package timing

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/simt"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// telemetryTrace builds a multi-SM, multi-kernel workload that exercises
// L1/L2/DRAM and the crossbar.
func telemetryTrace(nWarps, nLoads int) *simt.KernelTrace {
	warps := make([][]simt.Instr, nWarps)
	for w := range warps {
		var prog []simt.Instr
		for i := 0; i < nLoads; i++ {
			prog = append(prog, load(1, 0, arch.BlockAddr(w*nLoads+i)), compute(2))
		}
		prog = append(prog, store(2, 1, arch.BlockAddr(1000+w)))
		warps[w] = prog
	}
	return mkTrace(1, warps...)
}

// TestTelemetryDoesNotChangeStats asserts the observation invariant:
// attaching a registry and a trace leaves every kernel statistic
// bit-identical to an uninstrumented run.
func TestTelemetryDoesNotChangeStats(t *testing.T) {
	tr := telemetryTrace(8, 6)
	bare, err := New(arch.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ksBare, err := bare.RunKernel(tr)
	if err != nil {
		t.Fatal(err)
	}

	inst, err := New(arch.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	inst.Metrics = telemetry.NewRegistry()
	inst.Trace = telemetry.NewTrace()
	ksInst, err := inst.RunKernel(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ksBare, ksInst) {
		t.Errorf("instrumented stats differ from baseline:\nbare: %+v\ninst: %+v", ksBare, ksInst)
	}
}

// TestEngineMetricsPublished asserts the registry counters reconcile with
// the kernel stats the engine reports.
func TestEngineMetricsPublished(t *testing.T) {
	reg := telemetry.NewRegistry()
	e, err := New(arch.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Metrics = reg
	tr := telemetryTrace(8, 6)
	ks1, err := e.RunKernel(tr)
	if err != nil {
		t.Fatal(err)
	}
	ks2, err := e.RunKernel(tr)
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	sumVec := func(name string) uint64 {
		var total uint64
		for _, s := range snap {
			if s.Name == name {
				total += uint64(s.Value)
			}
		}
		return total
	}
	if got, want := sumVec("dcrm_sm_instructions_total"), ks1.Instructions+ks2.Instructions; got != want {
		t.Errorf("instructions counter = %d, want %d", got, want)
	}
	if got, want := sumVec("dcrm_l1_reads_total"), ks1.L1.Reads+ks2.L1.Reads; got != want {
		t.Errorf("l1 reads counter = %d, want %d", got, want)
	}
	if got, want := sumVec("dcrm_l2_reads_total"), ks1.L2.Reads+ks2.L2.Reads; got != want {
		t.Errorf("l2 reads counter = %d, want %d", got, want)
	}
	if got, want := sumVec("dcrm_dram_requests_total"), ks1.DRAM.Served+ks2.DRAM.Served; got != want {
		t.Errorf("dram served counter = %d, want %d", got, want)
	}
	if s, ok := snap.Get("dcrm_timing_kernels_total"); !ok || s.Value != 2 {
		t.Errorf("kernels counter = %+v, want 2", s)
	}
	if s, ok := snap.Get("dcrm_timing_cycles_total"); !ok || int64(s.Value) != ks1.Cycles+ks2.Cycles {
		t.Errorf("cycles counter = %+v, want %d", s, ks1.Cycles+ks2.Cycles)
	}
}

// TestEngineTraceLanes asserts the Chrome trace has one metadata lane and
// one span per hardware unit per kernel, and that the JSON loads as an
// event array.
func TestEngineTraceLanes(t *testing.T) {
	cfg := arch.Default()
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Trace = telemetry.NewTrace()
	tr := telemetryTrace(8, 4)
	if _, err := e.RunKernel(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunKernel(tr); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := e.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("engine trace is not a trace_event JSON array: %v", err)
	}

	spanLanes := map[string]int{} // "pid/tid" -> spans
	meta := 0
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			key := strconv.Itoa(int(ev["pid"].(float64))) + "/" + strconv.Itoa(int(ev["tid"].(float64)))
			spanLanes[key]++
		}
	}
	// Metadata: 3 process names + SMs + 2 lanes per channel, emitted once.
	wantMeta := 3 + cfg.NumSMs + 2*cfg.NumMemChannels
	if meta != wantMeta {
		t.Errorf("metadata events = %d, want %d", meta, wantMeta)
	}
	// Every SM, bank, and channel lane carries one span per kernel.
	wantLanes := cfg.NumSMs + 2*cfg.NumMemChannels
	if len(spanLanes) != wantLanes {
		t.Errorf("span lanes = %d, want %d", len(spanLanes), wantLanes)
	}
	for lane, n := range spanLanes {
		if n != 2 {
			t.Errorf("lane %s has %d spans, want 2 (one per kernel)", lane, n)
		}
	}
}

// benchKernel sizes the overhead benchmark: enough traffic to exercise the
// full memory hierarchy, small enough for -benchtime=1x CI smoke runs.
func benchKernel() *simt.KernelTrace { return telemetryTrace(32, 16) }

// runBenchmark replays the kernel b.N times on one engine, the same
// pattern as a Fig. 7 sweep replaying an app's kernels back to back.
func runBenchmark(b *testing.B, instrument bool) {
	e, err := New(arch.Default(), nil)
	if err != nil {
		b.Fatal(err)
	}
	if instrument {
		e.Metrics = telemetry.NewRegistry()
		e.Trace = telemetry.NewTrace()
	}
	tr := benchKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunKernel(tr); err != nil {
			b.Fatal(err)
		}
	}
	if instrument {
		// Scraping the registry the run just filled must stay cheap: the
		// snapshot slice is pre-sized from the series count and sort keys
		// are rendered once per sample, so a Snapshot is bounded by a few
		// allocations per series (labels, sort keys, and bucket copies),
		// not by repeated slice growth or comparator-time garbage.
		b.StopTimer()
		series := len(e.Metrics.Snapshot())
		allocs := testing.AllocsPerRun(10, func() { e.Metrics.Snapshot() })
		if max := float64(3*series + 8); allocs > max {
			b.Errorf("Snapshot over %d series = %.0f allocs, want <= %.0f", series, allocs, max)
		}
	}
}

// BenchmarkRunKernelBaseline measures the uninstrumented timing engine.
// Compare against BenchmarkRunKernelTelemetry: the telemetry-instrumented
// engine must stay within 2% (telemetry publishes at kernel boundaries
// only, so the difference is one stats rollup per kernel).
func BenchmarkRunKernelBaseline(b *testing.B) { runBenchmark(b, false) }

// BenchmarkRunKernelTelemetry measures the engine with a metrics registry
// and a Chrome trace attached.
func BenchmarkRunKernelTelemetry(b *testing.B) { runBenchmark(b, true) }
