package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/telemetry"
	"github.com/datacentric-gpu/dcrm/internal/timing"
)

// TestWriteTraceCreatesParentDirs pins the output-path contract shared by
// every command: pointing an output flag at a path whose directories do not
// exist yet must create them, not fail.
func TestWriteTraceCreatesParentDirs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a", "b", "trace.json")
	if err := writeTrace(path, telemetry.NewTrace()); err != nil {
		t.Fatalf("writeTrace into missing nested dir: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
}

// TestParseSchedulerFailsClosed: only the two implemented policies parse;
// anything else is an error naming both, never a silent fall-back to GTO.
func TestParseSchedulerFailsClosed(t *testing.T) {
	for name, want := range map[string]timing.SchedulerPolicy{"gto": timing.GTO, "lrr": timing.LRR} {
		got, err := parseScheduler(name)
		if err != nil || got != want {
			t.Errorf("parseScheduler(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"LRR", "bogus", ""} {
		_, err := parseScheduler(name)
		if err == nil {
			t.Errorf("parseScheduler(%q) accepted", name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "gto") || !strings.Contains(msg, "lrr") {
			t.Errorf("parseScheduler(%q) error %q does not name gto and lrr", name, msg)
		}
	}
}
