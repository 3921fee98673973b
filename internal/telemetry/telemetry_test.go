package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Error("Counter is not get-or-create: second lookup returned a new instance")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}
}

func TestVecChildrenIndependent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("fam_total", "family", "sm")
	v.With("0").Add(3)
	v.With("1").Inc()
	if a, b := v.With("0").Value(), v.With("1").Value(); a != 3 || b != 1 {
		t.Errorf("children = %d, %d; want 3, 1", a, b)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Errorf("sum = %g, want 556.5", h.Sum())
	}
	s, ok := r.Snapshot().Get("lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	wantCum := []uint64{2, 3, 4, 5} // le=1, le=10, le=100, le=+Inf
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d (le=%g) = %d, want %d", i, b.UpperBound, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(s.Buckets[len(s.Buckets)-1].UpperBound, 1) {
		t.Error("last bucket is not +Inf")
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("b_total", "", "ch")
	v.With("1").Add(10)
	v.With("0").Add(7)
	r.Gauge("a_gauge", "").Set(3)

	s1 := r.Snapshot()
	for i := 1; i < len(s1); i++ {
		if !s1[i-1].less(s1[i]) {
			t.Fatalf("snapshot not sorted: %q before %q", s1[i-1].key(), s1[i].key())
		}
	}

	// A snapshot is detached: later updates show only in the next one.
	v.With("0").Add(5)
	r.Gauge("a_gauge", "").Set(9)
	s2 := r.Snapshot()
	if sm, _ := s1.Get("b_total", Label{"ch", "0"}); sm.Value != 7 {
		t.Errorf("earlier snapshot's counter = %g, want 7", sm.Value)
	}
	if sm, _ := s2.Get("b_total", Label{"ch", "0"}); sm.Value != 12 {
		t.Errorf("counter = %g, want 12", sm.Value)
	}
	if sm, _ := s2.Get("a_gauge"); sm.Value != 9 {
		t.Errorf("gauge = %g, want 9", sm.Value)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("conc_total", "", "w")
	h := r.Histogram("conc_hist", "", []float64{10, 100})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := v.With("shared")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 200))
			}
		}(w)
	}
	wg.Wait()
	if got := v.With("shared").Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if got := h.Count(); got != 8000 {
		t.Errorf("concurrent histogram count = %d, want 8000", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("dcrm_runs_total", "total runs").Add(42)
	r.CounterVec("dcrm_outcomes_total", "outcomes", "outcome").With(`s"d\c`).Add(3)
	r.Gauge("dcrm_inflight", "in flight").Set(1.5)
	r.Histogram("dcrm_seconds", "durations", []float64{1, 5}).Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP dcrm_runs_total total runs\n# TYPE dcrm_runs_total counter\ndcrm_runs_total 42\n",
		`dcrm_outcomes_total{outcome="s\"d\\c"} 3`,
		"# TYPE dcrm_inflight gauge\ndcrm_inflight 1.5\n",
		`dcrm_seconds_bucket{le="1"} 0`,
		`dcrm_seconds_bucket{le="5"} 1`,
		`dcrm_seconds_bucket{le="+Inf"} 1`,
		"dcrm_seconds_sum 2\n",
		"dcrm_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Deterministic: a second render is byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("WritePrometheus output is not deterministic")
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.CounterVec("bench_total", "", "sm").With("0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
