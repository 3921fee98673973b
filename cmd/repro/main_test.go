package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/telemetry"
	"github.com/datacentric-gpu/dcrm/internal/timing"
	"github.com/datacentric-gpu/dcrm/internal/version"
)

// repro runs one in-process invocation and returns its exit status and
// output streams.
func repro(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestCheckSelection: every figure and table the command prints is
// accepted, and any other -fig or -table value is an error rather than a
// silent run that prints nothing. A -runs value below one is an error
// rather than a default-sized campaign reported as zero runs.
func TestCheckSelection(t *testing.T) {
	for _, fig := range []int{0, 2, 3, 4, 6, 7, 9} {
		if err := checkSelection(fig, 0, 1); err != nil {
			t.Errorf("-fig %d rejected: %v", fig, err)
		}
	}
	for _, table := range []int{1, 2, 3} {
		if err := checkSelection(0, table, 1); err != nil {
			t.Errorf("-table %d rejected: %v", table, err)
		}
	}
	for _, fig := range []int{-1, 1, 5, 8, 10} {
		if err := checkSelection(fig, 0, 1); err == nil {
			t.Errorf("-fig %d accepted", fig)
		}
	}
	for _, table := range []int{-1, 4, 7} {
		if err := checkSelection(0, table, 1); err == nil {
			t.Errorf("-table %d accepted", table)
		}
	}
	for _, runs := range []int{1, 200} {
		if err := checkSelection(0, 0, runs); err != nil {
			t.Errorf("-runs %d rejected: %v", runs, err)
		}
	}
	for _, runs := range []int{0, -1} {
		if err := checkSelection(0, 0, runs); err == nil {
			t.Errorf("-runs %d accepted", runs)
		}
	}
}

// TestCheckRuns: a -runs value below one is an error rather than a
// default-sized campaign reported as zero runs, in every form that takes
// -runs.
func TestCheckRuns(t *testing.T) {
	for _, runs := range []int{1, 1000} {
		if err := checkRuns(runs); err != nil {
			t.Errorf("-runs %d rejected: %v", runs, err)
		}
	}
	for _, runs := range []int{0, -1} {
		if err := checkRuns(runs); err == nil {
			t.Errorf("-runs %d accepted", runs)
		}
	}
	for _, form := range [][]string{{}, {"inject"}, {"resilience"}} {
		code, stdout, stderr := repro(t, append(form, "-runs", "0", "-quiet")...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, "-runs 0") {
			t.Errorf("%v -runs 0: exit %d, stdout %q, stderr %q; want exit 1 naming -runs", form, code, stdout, stderr)
		}
	}
}

// TestWriteTraceCreatesParentDirs pins the output-path contract shared by
// every output flag: pointing one at a path whose directories do not exist
// yet must create them, not fail.
func TestWriteTraceCreatesParentDirs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a", "b", "trace.json")
	if err := writeFile(path, telemetry.NewTrace().WriteJSON); err != nil {
		t.Fatalf("writing a trace into a missing nested dir: %v", err)
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

// TestVerbContract: every form (the verb-less figures build and each
// verb) accepts every shared suite flag, -version prints version.String(),
// -h exits 0, and an unknown verb, a positional argument or an undefined
// flag each exit 2 without running anything.
func TestVerbContract(t *testing.T) {
	dir := t.TempDir()
	shared := []string{
		"-workers", "1", "-store-dir", filepath.Join(dir, "store"), "-scale", "small", "-quiet",
		"-metrics-out", filepath.Join(dir, "m.txt"), "-cpuprofile", filepath.Join(dir, "cpu.pprof"),
		"-memprofile", filepath.Join(dir, "mem.pprof"), "-version",
	}
	forms := [][]string{{}}
	for _, v := range verbs {
		forms = append(forms, []string{v.name})
	}
	for _, form := range forms {
		arg := func(extra ...string) []string { return append(append([]string{}, form...), extra...) }
		if code, stdout, _ := repro(t, arg(shared...)...); code != 0 || stdout != version.String()+"\n" {
			t.Errorf("%v with every shared flag and -version: exit %d, stdout %q; want 0, %q", form, code, stdout, version.String())
		}
		if code, _, stderr := repro(t, arg("-h")...); code != 0 || !strings.Contains(stderr, "-store-dir") {
			t.Errorf("%v -h: exit %d, usage %q; want 0 and the flag list", form, code, stderr)
		}
		for _, bad := range [][]string{{"-bogus"}, {"bogus"}, {"-quiet", "bogus", "-version"}} {
			if code, stdout, _ := repro(t, arg(bad...)...); code != 2 || stdout != "" {
				t.Errorf("%v %v: exit %d, stdout %q; want 2 and no output", form, bad, code, stdout)
			}
		}
	}
	for _, bad := range [][]string{{"bogus"}, {"bogus", "-fig", "2"}, {"figures"}, {"gpusim"}} {
		code, stdout, stderr := repro(t, bad...)
		if code != 2 || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q; want 2 and no output", bad, code, stdout)
		}
		for _, v := range verbs {
			if !strings.Contains(stderr, v.name) {
				t.Errorf("%v: error %q does not name verb %s", bad, stderr, v.name)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "store")); err == nil {
		t.Error("-version opened the store")
	}
}

// TestFailsClosed pins the input defects the standalone commands had: each
// ends with an error and a non-zero exit, never a panic, a silently empty
// result or a default run.
func TestFailsClosed(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		// -points 1 divided by zero in the series subsampler; -points 0
		// printed an empty series.
		{[]string{"profile", "-points", "1"}, 1, "-points 1"},
		{[]string{"profile", "-warps", "-points", "1"}, 1, "-points 1"},
		{[]string{"profile", "-series", "P-BICG", "-points", "1"}, 1, "-points 1"},
		{[]string{"profile", "-series", "P-BICG", "-points", "0"}, 1, "-points 0"},
		{[]string{"profile", "-series", "P-BICG", "-points", "-3"}, 1, "-points -3"},
		// A Fig. 2 CSV export failure was printed and then ignored.
		{[]string{"-fig", "2", "-quiet", "-csv", filepath.Join(file, "csv")}, 1, "not a directory"},
		// A positional argument stopped flag parsing: the figures ran in
		// full, and inject dropped -apps and -quiet.
		{[]string{"bogus", "-fig", "2"}, 2, "unknown verb"},
		{[]string{"-fig", "2", "bogus"}, 2, "unexpected argument"},
		{[]string{"inject", "-runs", "5", "bogus", "-apps", "P-BICG", "-quiet"}, 2, "unexpected argument"},
		// Values the parsers reject.
		{[]string{"-scale", "huge", "-table", "1"}, 1, "unknown scale"},
		{[]string{"sim", "-scheme", "triplication"}, 1, "unknown scheme"},
		{[]string{"sim", "-scheduler", "fifo"}, 1, "unknown scheduler"},
		{[]string{"inject", "-model", "bogus:bits=2", "-runs", "5"}, 1, "bogus"},
	} {
		code, stdout, stderr := repro(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d mentioning %q", tc.args, code, stderr, tc.code, tc.want)
		}
		if tc.code == 2 && stdout != "" {
			t.Errorf("%v: printed %q before failing", tc.args, stdout)
		}
	}
}
