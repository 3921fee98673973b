package telemetry

import (
	"fmt"
	"testing"
)

// populateRegistry fills a registry with a representative mix: plain
// counters and gauges, a histogram, and labeled families with several
// children each.
func populateRegistry() *Registry {
	r := NewRegistry()
	for i := 0; i < 8; i++ {
		r.Counter(fmt.Sprintf("plain_counter_%d", i), "t").Add(uint64(i))
		r.Gauge(fmt.Sprintf("plain_gauge_%d", i), "t").Set(float64(i))
	}
	r.Histogram("plain_hist", "t", []float64{1, 10, 100}).Observe(5)
	cv := r.CounterVec("family_counter", "t", "phase")
	hv := r.HistogramVec("family_hist", "t", []float64{1, 10}, "phase")
	for i := 0; i < 6; i++ {
		phase := fmt.Sprintf("phase-%d", i)
		cv.With(phase).Inc()
		hv.With(phase).Observe(float64(i))
	}
	return r
}

// TestSnapshotAllocsBounded pins the allocation behaviour of Snapshot: the
// result slices are pre-sized from the registry's series count, so the
// cost is a small constant per series (label and bucket copies), never
// repeated slice growth.
func TestSnapshotAllocsBounded(t *testing.T) {
	r := populateRegistry()
	series := len(r.Snapshot())
	if series == 0 {
		t.Fatal("empty snapshot")
	}

	snapAllocs := testing.AllocsPerRun(20, func() { r.Snapshot() })
	// Result and sort-key slices, plus a small constant per series: only
	// family children pay label/sort-key allocations and only histograms
	// pay a bucket copy. Before the pre-sizing and key-caching work this
	// was ~7 allocations per series from repeated slice growth and
	// comparator-time key rendering.
	if max := float64(3*series + 8); snapAllocs > max {
		t.Errorf("Snapshot over %d series = %.0f allocs, want <= %.0f", series, snapAllocs, max)
	}
}

// BenchmarkRegistrySnapshot measures a scrape of a settled registry — the
// /metrics and monitor-loop hot path.
func BenchmarkRegistrySnapshot(b *testing.B) {
	r := populateRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Snapshot()
	}
}
