package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the trace golden file")

// goldenTrace builds the fixed trace the golden file captures: two SM
// lanes, an L2 bank lane, a DRAM counter track, and an instant marker. No
// simulator layer records instants; the marker is emitted raw because the
// writer must serialize any phase.
func goldenTrace() *Trace {
	tr := NewTrace()
	tr.NameProcess(1, "SMs")
	tr.NameThread(1, 0, "SM 0")
	tr.NameThread(1, 1, "SM 1")
	tr.NameProcess(2, "L2 banks")
	tr.NameThread(2, 0, "L2 bank 0")
	tr.Span(1, 0, "kernel_a", 0, 120, map[string]any{"instructions": 64, "l1_reads": 32})
	tr.Span(1, 1, "kernel_a", 0, 118, nil)
	tr.Span(2, 0, "kernel_a", 5, 110, map[string]any{"reads": 40, "read_misses": 8})
	tr.CounterEvent(3, "dram_ch0", 120, map[string]float64{"served": 12, "row_hits": 9})
	tr.emit(TraceEvent{Name: "stall", Phase: "i", Ts: 60, Pid: 1, Tid: 0, Args: map[string]any{"s": "t"}})
	return tr
}

func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output differs from golden file %s (re-run with -update-golden after intentional changes)\ngot:\n%s\nwant:\n%s",
			path, buf.Bytes(), want)
	}
}

// TestTraceLoadsAsEventArray asserts the exported JSON is the
// array-of-events trace_event form chrome://tracing accepts: a JSON array
// whose elements carry ph/pid/tid and the phase-appropriate fields.
func TestTraceLoadsAsEventArray(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace JSON is not an event array: %v", err)
	}
	if len(events) != goldenTrace().Len() {
		t.Fatalf("decoded %d events, want %d", len(events), goldenTrace().Len())
	}
	phases := map[string]int{}
	for i, ev := range events {
		ph, ok := ev["ph"].(string)
		if !ok {
			t.Fatalf("event %d has no ph field: %v", i, ev)
		}
		phases[ph]++
		if _, ok := ev["pid"].(float64); !ok {
			t.Errorf("event %d has no numeric pid: %v", i, ev)
		}
		if ph == "X" {
			if _, ok := ev["dur"].(float64); !ok {
				t.Errorf("complete event %d has no dur: %v", i, ev)
			}
		}
	}
	for _, ph := range []string{"M", "X", "C", "i"} {
		if phases[ph] == 0 {
			t.Errorf("no %q-phase events in trace", ph)
		}
	}
}

func TestTraceEmptyWritesValidArray(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty trace JSON invalid: %v", err)
	}
	if len(events) != 0 {
		t.Errorf("empty trace decoded %d events", len(events))
	}
}
