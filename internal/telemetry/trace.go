package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// TraceEvent is one Chrome trace_event record. The JSON field names follow
// the Trace Event Format specification consumed by chrome://tracing and
// Perfetto; only the event phases the simulator emits are modelled.
type TraceEvent struct {
	// Name labels the event in the timeline.
	Name string `json:"name"`
	// Phase is the event type: "X" complete, "C" counter, "M" metadata.
	Phase string `json:"ph"`
	// Ts is the event timestamp. The viewer interprets it as microseconds;
	// the simulator emits core-clock cycles, so one timeline microsecond
	// reads as one simulated cycle.
	Ts int64 `json:"ts"`
	// Dur is the duration of a complete ("X") event, in the same unit.
	Dur int64 `json:"dur,omitempty"`
	// Pid and Tid place the event on a (process, thread) lane; the
	// simulator maps hardware units onto lanes (e.g. one process per
	// component class, one thread per SM).
	Pid int `json:"pid"`
	Tid int `json:"tid"`
	// Args carries event payload (counter series, metadata names, stats).
	Args map[string]any `json:"args,omitempty"`
}

// Trace accumulates Chrome trace_event records. Safe for concurrent use;
// events are kept in emission order, and WriteJSON output is deterministic
// for a deterministic emission sequence (map-valued args marshal with
// sorted keys).
type Trace struct {
	mu     sync.Mutex
	events []TraceEvent
}

// NewTrace builds an empty trace.
func NewTrace() *Trace { return &Trace{} }

func (t *Trace) emit(ev TraceEvent) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// NameProcess labels the process lane pid (a metadata event; Chrome shows
// the name as the lane-group header).
func (t *Trace) NameProcess(pid int, name string) {
	t.emit(TraceEvent{Name: "process_name", Phase: "M", Pid: pid, Args: map[string]any{"name": name}})
}

// NameThread labels the thread lane (pid, tid).
func (t *Trace) NameThread(pid, tid int, name string) {
	t.emit(TraceEvent{Name: "thread_name", Phase: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
}

// Span records a complete ("X") event: name occupied lane (pid, tid) from
// ts for dur time units. args may be nil.
func (t *Trace) Span(pid, tid int, name string, ts, dur int64, args map[string]any) {
	t.emit(TraceEvent{Name: name, Phase: "X", Ts: ts, Dur: dur, Pid: pid, Tid: tid, Args: args})
}

// CounterEvent records a counter ("C") event: the named series values at
// ts, which Chrome renders as a stacked area track on the pid lane.
func (t *Trace) CounterEvent(pid int, name string, ts int64, series map[string]float64) {
	args := make(map[string]any, len(series))
	for k, v := range series {
		args[k] = v
	}
	t.emit(TraceEvent{Name: name, Phase: "C", Ts: ts, Pid: pid, Args: args})
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events in emission order.
func (t *Trace) Events() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, len(t.events))
	copy(out, t.events)
	return out
}

// WriteJSON renders the trace in the JSON-array trace_event form (one
// event object per line), directly loadable by chrome://tracing and
// Perfetto.
func (t *Trace) WriteJSON(w io.Writer) error {
	events := t.Events()
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("telemetry: trace event %d: %w", i, err)
		}
		sep := ",\n"
		if i == len(events)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(b, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
