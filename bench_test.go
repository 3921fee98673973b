package dcrm

// Benchmarks of the pieces under the figures: the design-point ablations
// EXPERIMENTS.md quotes, raw timing-simulator and functional-run
// throughput, one campaign on the fork + checkpoint fast path, and the
// suite memo under contention:
//
//	go test -bench=. -benchmem
//
// cmd/repro prints every table and figure with its headline numbers, and
// dcrmbench's figures workload times a cold build of them on a fresh suite.

import (
	"sync"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/timing"
)

var (
	benchSuiteOnce sync.Once
	benchSuiteVal  *experiments.Suite
	benchSuiteErr  error
)

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchSuiteOnce.Do(func() {
		benchSuiteVal, benchSuiteErr = experiments.NewSuite(experiments.SuiteConfig{})
	})
	if benchSuiteErr != nil {
		b.Fatalf("suite: %v", benchSuiteErr)
	}
	return benchSuiteVal
}

// BenchmarkSuiteMemoContention measures the memoized Profile path under
// 8-way concurrent access (the fan-out's hottest shared structure).
func BenchmarkSuiteMemoContention(b *testing.B) {
	s := benchSuite(b)
	if _, err := s.Profile("P-BICG"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.Profile("P-BICG"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationLazyCompare measures lazy versus eager copy comparison
// for detection (Section IV-B1's latency-tolerance design point).
func BenchmarkAblationLazyCompare(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationLazyCompare(s, "P-BICG")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Ratio(), "eager/lazy")
	}
}

// BenchmarkAblationScheduler measures GTO versus LRR warp scheduling under
// correction.
func BenchmarkAblationScheduler(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationScheduler(s, "P-BICG")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Ratio(), "lrr/gto")
	}
}

// BenchmarkAblationPlacement measures distinct-channel versus same-channel
// replica placement.
func BenchmarkAblationPlacement(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationPlacement(s, "P-BICG")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Ratio(), "same/distinct-channel")
	}
}

// BenchmarkAblationCompareBuffer sweeps the pending-compare buffer size.
func BenchmarkAblationCompareBuffer(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		cycles, err := experiments.AblationCompareBuffer(s, "P-BICG", []int{1, 8, 32})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(cycles[1])/float64(cycles[32]), "1-entry/32-entry")
	}
}

// BenchmarkTimingSimulator measures raw timing-simulator throughput on the
// P-BICG baseline (cycles simulated per wall-second).
func BenchmarkTimingSimulator(b *testing.B) {
	s := benchSuite(b)
	app, err := s.App("P-BICG")
	if err != nil {
		b.Fatal(err)
	}
	traces, err := app.TraceRun()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := timing.New(arch.Default(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.RunApp("P-BICG", traces); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalRun measures one functional (fault-injection-mode)
// execution of P-BICG.
func BenchmarkFunctionalRun(b *testing.B) {
	s := benchSuite(b)
	app, err := s.App("P-BICG")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := app.RunOn(app.Mem.Clone(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignSingleConfig measures one 100-run detection campaign on
// P-BICG under the paper's densest fault model, on the fork + checkpoint
// fast path the experiments and the public API use.
func BenchmarkCampaignSingleConfig(b *testing.B) {
	s := benchSuite(b)
	cp, err := s.Checkpoint("P-BICG", core.Detection, 2)
	if err != nil {
		b.Fatal(err)
	}
	sel, err := cp.MissSelector()
	if err != nil {
		b.Fatal(err)
	}
	model := fault.StuckAt{BitsPerWord: 4, Blocks: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cp.Campaign(fault.Campaign{Runs: 100, Seed: int64(i + 1)}, model, sel)
		if err != nil {
			b.Fatal(err)
		}
	}
}
