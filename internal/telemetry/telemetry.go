// Package telemetry is the simulator's zero-dependency observability
// substrate: a metrics registry (counters, gauges, histograms, and labeled
// families thereof) with lock-free hot-path updates, deterministic sorted
// snapshots, a Prometheus text-format exporter, and a Chrome
// trace_event JSON exporter for timeline visualisation.
//
// Design constraints, in order:
//
//  1. Hot-path cost. A Counter.Add is a single atomic add on a cached
//     pointer; no map lookup, no allocation, no lock. Callers that update
//     metrics inside a simulation loop resolve the child metric once (at
//     construction or kernel boundary) and keep the pointer.
//  2. Determinism. Metrics only observe; nothing in this package feeds back
//     into simulation state, and Snapshot output is fully sorted, so
//     attaching a registry cannot perturb byte-identical serial-vs-parallel
//     experiment outputs.
//  3. Zero dependencies. Only the standard library is used, so every layer
//     of the simulator may import telemetry without cycles.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric types in snapshots and exports.
type Kind int

// Metric kinds.
const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota + 1
	// KindGauge is a point-in-time value that may go up or down.
	KindGauge
	// KindHistogram is a bucketed distribution with sum and count.
	KindHistogram
)

// String renders the kind as Prometheus TYPE labels it.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use; Add is one atomic add.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a point-in-time float64 value. All methods are safe for
// concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (atomically, via compare-and-swap).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricEntry is one registered name: exactly one of the pointers is set.
type metricEntry struct {
	kind    Kind
	help    string
	labels  []string // nil for unlabeled metrics
	buckets []float64
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	cvec    *CounterVec
	hvec    *HistogramVec
}

// Registry holds named metrics. Registration methods are get-or-create:
// calling Counter twice with the same name returns the same *Counter, so
// independent components may register shared families without coordination.
// Registering a name twice with a different metric type or label set
// panics — that is a programming error, not a runtime condition.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metricEntry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metricEntry)}
}

// lookup finds or inserts the entry for name, enforcing kind/label
// consistency.
func (r *Registry) lookup(name, help string, kind Kind, labels []string, mk func(e *metricEntry)) *metricEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.metrics[name]
	if !ok {
		e = &metricEntry{kind: kind, help: help, labels: labels}
		mk(e)
		r.metrics[name] = e
		return e
	}
	if e.kind != kind {
		panic(fmt.Sprintf("telemetry: %q re-registered as %v, was %v", name, kind, e.kind))
	}
	if len(e.labels) != len(labels) {
		panic(fmt.Sprintf("telemetry: %q re-registered with labels %v, was %v", name, labels, e.labels))
	}
	for i := range labels {
		if e.labels[i] != labels[i] {
			panic(fmt.Sprintf("telemetry: %q re-registered with labels %v, was %v", name, labels, e.labels))
		}
	}
	return e
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	e := r.lookup(name, help, KindCounter, nil, func(e *metricEntry) { e.counter = &Counter{} })
	if e.counter == nil {
		panic(fmt.Sprintf("telemetry: %q is a labeled counter family, not a plain counter", name))
	}
	return e.counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.lookup(name, help, KindGauge, nil, func(e *metricEntry) { e.gauge = &Gauge{} })
	if e.gauge == nil {
		panic(fmt.Sprintf("telemetry: %q is a labeled gauge family, not a plain gauge", name))
	}
	return e.gauge
}

// Histogram returns the named histogram, creating it on first use with the
// given bucket upper bounds (ascending; an implicit +Inf bucket is added).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	e := r.lookup(name, help, KindHistogram, nil, func(e *metricEntry) {
		e.buckets = validateBuckets(name, buckets)
		e.hist = newHistogram(e.buckets)
	})
	if e.hist == nil {
		panic(fmt.Sprintf("telemetry: %q is a labeled histogram family, not a plain histogram", name))
	}
	return e.hist
}

// seriesLocked counts the registry's current series (one per plain metric,
// one per labeled-family child); the caller holds mu.
func (r *Registry) seriesLocked() int {
	n := 0
	for _, e := range r.metrics {
		switch {
		case e.cvec != nil:
			n += e.cvec.v.len()
		case e.hvec != nil:
			n += e.hvec.v.len()
		default:
			n++
		}
	}
	return n
}

// snapshotLocked renders the registry's current state; the caller holds mu.
// The result slice is sized to the series count up front, so a snapshot of
// a settled registry costs one slice allocation plus the per-sample label
// and bucket copies.
func (r *Registry) snapshotLocked() Snapshot {
	out := make(Snapshot, 0, r.seriesLocked())
	for name, e := range r.metrics {
		switch {
		case e.counter != nil:
			out = append(out, Sample{Name: name, Kind: KindCounter, Value: float64(e.counter.Value())})
		case e.gauge != nil:
			out = append(out, Sample{Name: name, Kind: KindGauge, Value: e.gauge.Value()})
		case e.hist != nil:
			out = append(out, e.hist.sample(name, nil))
		case e.cvec != nil:
			out = e.cvec.appendSamples(out, name)
		case e.hvec != nil:
			out = e.hvec.appendSamples(out, name)
		}
	}
	// Sort by precomputed keys: deriving the key inside the comparator
	// would allocate on every comparison (O(n log n) garbage per scrape).
	keys := make([]string, len(out))
	for i := range out {
		keys[i] = out[i].key()
	}
	sort.Sort(&snapshotSorter{samples: out, keys: keys})
	return out
}

// snapshotSorter orders samples and their cached keys together.
type snapshotSorter struct {
	samples Snapshot
	keys    []string
}

func (s *snapshotSorter) Len() int           { return len(s.samples) }
func (s *snapshotSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *snapshotSorter) Swap(i, j int) {
	s.samples[i], s.samples[j] = s.samples[j], s.samples[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// Snapshot returns a sorted point-in-time copy of every metric. The result
// is detached: later metric updates do not modify it.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

// Label is one name/value pair of a labeled metric child.
type Label struct {
	Name  string
	Value string
}

// Bucket is one histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound; +Inf for the last.
	UpperBound float64
	// Count is the cumulative observation count at or below UpperBound.
	Count uint64
}

// Sample is one metric child in a snapshot.
type Sample struct {
	// Name is the metric family name.
	Name string
	// Labels identify the child within a labeled family (nil otherwise).
	Labels []Label
	// Kind discriminates the remaining fields.
	Kind Kind
	// Value holds the counter count or gauge value; for histograms it is the
	// sum of observations.
	Value float64
	// Count is the histogram observation count (histograms only).
	Count uint64
	// Buckets are the histogram's cumulative bucket counts (histograms only).
	Buckets []Bucket
}

// key renders the sample's identity (name plus label values) for sorting
// and lookup.
func (s Sample) key() string {
	k := s.Name
	for _, l := range s.Labels {
		k += "\x00" + l.Name + "\x01" + l.Value
	}
	return k
}

func (s Sample) less(o Sample) bool { return s.key() < o.key() }

// Snapshot is a sorted set of samples; the result of Registry.Snapshot.
type Snapshot []Sample

// Get returns the sample with the given name and labels (in registration
// order), or false.
func (s Snapshot) Get(name string, labels ...Label) (Sample, bool) {
	want := Sample{Name: name, Labels: labels}.key()
	for _, sm := range s {
		if sm.key() == want {
			return sm, true
		}
	}
	return Sample{}, false
}
