package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// phaseLane marks a span recorded by the coordinating goroutine around a
// whole fan-out (a figure, the restart, the campaign set). Phase spans are
// not on any worker lane, so coverage ignores them.
const phaseLane = -1

// span is one timed call at a layer boundary.
type span struct {
	name string
	// lane is the worker lane the call ran on, or phaseLane.
	lane int
	// parent indexes the phase span the call ran under (-1 for none).
	parent     int
	start, end time.Duration // since the tracer's origin
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// *tracer records nothing: untraced passes run the same code with one nil
// check per call.
type tracer struct {
	origin time.Time
	lanes  int

	mu    sync.Mutex
	spans []span
	phase int // index of the open phase span, -1 when none

	// Pool accounting over the measured pass window: time each lane spent
	// inside tasks, and the total wall clock of fan-outs.
	passStart, passEnd time.Duration
	inPass             bool
	busy               []time.Duration
	fanWall            time.Duration
}

func newTracer(lanes int) *tracer {
	return &tracer{origin: time.Now(), lanes: lanes, phase: -1, busy: make([]time.Duration, lanes)}
}

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// lane is a worker's handle for recording spans. Lane 0 is also the
// coordinating goroutine between fan-outs.
type lane struct {
	tr *tracer
	id int
}

// call runs f inside a span named name. Spans must sit at layer boundaries:
// around one call into the library.
func (l lane) call(name string, f func() error) error {
	if l.tr == nil {
		return f()
	}
	start := l.tr.now()
	err := f()
	l.tr.record(span{name: name, lane: l.id, start: start, end: l.tr.now()})
	return err
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	s.parent = t.phase
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// phaseDo runs f inside a phase span on the coordinating goroutine; spans
// recorded meanwhile name it as their parent.
func (t *tracer) phaseDo(name string, f func() error) error {
	if t == nil {
		return f()
	}
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, span{name: name, lane: phaseLane, parent: t.phase, start: t.now()})
	prev := t.phase
	t.phase = idx
	t.mu.Unlock()
	err := f()
	t.mu.Lock()
	t.spans[idx].end = t.now()
	t.phase = prev
	t.mu.Unlock()
	return err
}

// beginPass and endPass bound the window coverage is measured over.
func (t *tracer) beginPass() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.passStart, t.inPass = t.now(), true
	t.mu.Unlock()
}

func (t *tracer) endPass() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.passEnd, t.inPass = t.now(), false
	t.mu.Unlock()
}

// fanOut runs task(l, i) for every i in [0, n) on up to workers goroutines,
// claiming indices in order, and returns once all have finished. Tasks
// record their own failures; fanOut itself never fails. With a tracer it
// also accounts each lane's busy time, from which pool idle is derived.
func fanOut(tr *tracer, workers, n int, task func(l lane, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	start := time.Now()
	var next atomic.Int64
	busy := make([]time.Duration, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t := time.Now()
				task(lane{tr: tr, id: id}, i)
				busy[id] += time.Since(t)
			}
		}(w)
	}
	wg.Wait()
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.inPass {
		tr.fanWall += time.Since(start)
		for id, b := range busy {
			tr.busy[id] += b
		}
	}
	tr.mu.Unlock()
}

// selfSeconds sums the self time of every span with the given name: its
// duration minus the part of it its child spans cover.
func (t *tracer) selfSeconds(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total time.Duration
	for i, s := range t.spans {
		if s.name == name {
			total += t.selfLocked(i)
		}
	}
	return total.Seconds()
}

func (t *tracer) selfLocked(i int) time.Duration {
	s := t.spans[i]
	var kids [][2]time.Duration
	for _, c := range t.spans {
		if c.parent == i {
			kids = append(kids, [2]time.Duration{c.start, c.end})
		}
	}
	return s.end - s.start - unionLength(kids)
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curStart, curEnd time.Duration
	open := false
	for _, x := range iv {
		if !open || x[0] > curEnd {
			if open {
				total += curEnd - curStart
			}
			curStart, curEnd, open = x[0], x[1], true
			continue
		}
		if x[1] > curEnd {
			curEnd = x[1]
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// passWall is the measured pass window in seconds.
func (t *tracer) passWall() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return (t.passEnd - t.passStart).Seconds()
}

// coverage is the share of lanes × pass wall accounted for by the self time
// of worker-lane spans plus pool idle, and busyFrac the share the pool was
// not idle. Lanes other than 0 are idle whenever they run no task; lane 0
// is idle only inside fan-outs, because between fan-outs it is the
// coordinating goroutine and its work must sit in spans. The rest is dark
// time: benchmark glue or library work outside any span.
func (t *tracer) coverage() (cov, busyFrac float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	wall := t.passEnd - t.passStart
	if wall <= 0 {
		return 0, 0
	}
	var spanned, idle time.Duration
	for i, s := range t.spans {
		if s.lane != phaseLane && s.start >= t.passStart && s.end <= t.passEnd {
			spanned += t.selfLocked(i)
		}
	}
	for id := 0; id < t.lanes; id++ {
		if id == 0 {
			idle += t.fanWall - t.busy[0]
		} else {
			idle += wall - t.busy[id]
		}
	}
	capacity := float64(time.Duration(t.lanes) * wall)
	return float64(spanned+idle) / capacity, 1 - float64(idle)/capacity
}

// writeChrome writes every span as a Chrome trace_event timeline: one thread
// per worker lane plus one for phases, timestamps in host microseconds.
func (t *tracer) writeChrome(path string) error {
	tr := telemetry.NewTrace()
	tr.NameProcess(1, "dcrmbench")
	for id := 0; id < t.lanes; id++ {
		tr.NameThread(1, id, fmt.Sprintf("lane %d", id))
	}
	tr.NameThread(1, t.lanes, "phases")
	t.mu.Lock()
	for _, s := range t.spans {
		tid := s.lane
		if tid == phaseLane {
			tid = t.lanes
		}
		tr.Span(1, tid, s.name, s.start.Microseconds(), (s.end - s.start).Microseconds(), nil)
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
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
