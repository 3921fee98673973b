package telemetry

import (
	"fmt"
	"strings"
	"sync"
)

// vec is the shared child table of a labeled metric family. With resolves a
// label-value tuple to its child under a read-lock fast path; hot-path
// callers resolve once and keep the child pointer, so the table is touched
// only at setup time.
type vec[T any] struct {
	labels []string
	mu     sync.RWMutex
	kids   map[string]*T
	mk     func() *T
}

func newVec[T any](labels []string, mk func() *T) *vec[T] {
	return &vec[T]{labels: labels, kids: make(map[string]*T), mk: mk}
}

func (v *vec[T]) with(family string, values []string) *T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: %q wants %d label values %v, got %v", family, len(v.labels), v.labels, values))
	}
	key := strings.Join(values, "\x00")
	v.mu.RLock()
	k, ok := v.kids[key]
	v.mu.RUnlock()
	if ok {
		return k
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if k, ok = v.kids[key]; ok {
		return k
	}
	k = v.mk()
	v.kids[key] = k
	return k
}

// len returns the current child count (the family's series count).
func (v *vec[T]) len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.kids)
}

// each visits every child with its reconstructed label set.
func (v *vec[T]) each(fn func(labels []Label, child *T)) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for key, k := range v.kids {
		var values []string
		if key != "" || len(v.labels) > 0 {
			values = strings.Split(key, "\x00")
		}
		labels := make([]Label, len(v.labels))
		for i, name := range v.labels {
			labels[i] = Label{Name: name, Value: values[i]}
		}
		fn(labels, k)
	}
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct {
	name string
	v    *vec[Counter]
}

// CounterVec returns the named counter family, creating it on first use.
// Label names are fixed at creation.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	e := r.lookup(name, help, KindCounter, labels, func(e *metricEntry) {
		e.cvec = &CounterVec{name: name, v: newVec(e.labels, func() *Counter { return &Counter{} })}
	})
	if e.cvec == nil {
		panic(fmt.Sprintf("telemetry: %q is a plain counter, not a labeled family", name))
	}
	return e.cvec
}

// With returns the child counter for the label values (creating it on first
// use). Resolve once outside hot loops; the returned pointer stays valid.
func (c *CounterVec) With(values ...string) *Counter { return c.v.with(c.name, values) }

// appendSamples appends one sample per child to out (which the registry
// pre-sizes from the series count, keeping snapshots allocation-lean).
func (c *CounterVec) appendSamples(out Snapshot, name string) Snapshot {
	c.v.each(func(labels []Label, k *Counter) {
		out = append(out, Sample{Name: name, Labels: labels, Kind: KindCounter, Value: float64(k.Value())})
	})
	return out
}

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct {
	name string
	v    *vec[Histogram]
}

// HistogramVec returns the named histogram family, creating it on first
// use. Every child shares the same bucket bounds.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	e := r.lookup(name, help, KindHistogram, labels, func(e *metricEntry) {
		e.buckets = validateBuckets(name, buckets)
		e.hvec = &HistogramVec{name: name, v: newVec(e.labels, func() *Histogram { return newHistogram(e.buckets) })}
	})
	if e.hvec == nil {
		panic(fmt.Sprintf("telemetry: %q is a plain histogram, not a labeled family", name))
	}
	return e.hvec
}

// With returns the child histogram for the label values.
func (h *HistogramVec) With(values ...string) *Histogram { return h.v.with(h.name, values) }

func (h *HistogramVec) appendSamples(out Snapshot, name string) Snapshot {
	h.v.each(func(labels []Label, k *Histogram) {
		out = append(out, k.sample(name, labels))
	})
	return out
}
