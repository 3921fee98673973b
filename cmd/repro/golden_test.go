package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutputs runs every documented invocation in-process and
// compares its stdout, CSV exports and trace file byte for byte with
// testdata/golden/<case>. The goldens were captured from the standalone
// commands the verbs replace (repro, profiler, faultinject, resilience and
// gpusim as built at commit b59462b), run with the command line in each
// case's old field; they are never regenerated from this code. The
// tokens @CSV@ and @TRACE@ stand for a fresh CSV directory and trace path,
// and the trace path in sim's stdout is compared as "<trace>".
func TestGoldenOutputs(t *testing.T) {
	for _, tc := range []struct {
		name, old string
		args      []string
	}{
		{"table1", "repro -table 1 -quiet", []string{"-table", "1", "-quiet"}},
		{"table2", "repro -table 2 -quiet", []string{"-table", "2", "-quiet"}},
		{"table3", "repro -table 3 -quiet", []string{"-table", "3", "-quiet"}},
		{"fig2", "repro -fig 2 -csv D -quiet", []string{"-fig", "2", "-csv", "@CSV@", "-quiet"}},
		{"fig3", "repro -fig 3 -csv D -quiet", []string{"-fig", "3", "-csv", "@CSV@", "-quiet"}},
		{"fig4", "repro -fig 4 -quiet", []string{"-fig", "4", "-quiet"}},
		{"fig6", "repro -fig 6 -runs 2 -quiet", []string{"-fig", "6", "-runs", "2", "-quiet"}},
		{"fig7", "repro -fig 7 -quiet", []string{"-fig", "7", "-quiet"}},
		{"fig9", "repro -fig 9 -runs 2 -csv D -quiet", []string{"-fig", "9", "-runs", "2", "-csv", "@CSV@", "-quiet"}},
		{"profile-list", "profiler -list", []string{"profile", "-list"}},
		{"profile", "profiler", []string{"profile", "-quiet"}},
		{"profile-warps", "profiler -warps", []string{"profile", "-warps", "-quiet"}},
		{"profile-objects", "profiler -objects", []string{"profile", "-objects", "-quiet"}},
		{"profile-series", "profiler -series P-BICG", []string{"profile", "-series", "P-BICG"}},
		{"inject", "faultinject -runs 5 -apps P-BICG -quiet",
			[]string{"inject", "-runs", "5", "-apps", "P-BICG", "-quiet"}},
		{"inject-breakdown", "faultinject -breakdown -runs 5 -apps P-BICG -csv D -quiet",
			[]string{"inject", "-breakdown", "-runs", "5", "-apps", "P-BICG", "-csv", "@CSV@", "-quiet"}},
		{"inject-model", "faultinject -model 'transient:flips=2' -runs 5 -apps P-BICG -quiet",
			[]string{"inject", "-model", "transient:flips=2", "-runs", "5", "-apps", "P-BICG", "-quiet"}},
		{"resilience-perf", "resilience -perf -apps P-BICG",
			[]string{"resilience", "-perf", "-apps", "P-BICG", "-quiet"}},
		{"resilience-sdc", "resilience -sdc -runs 5 -apps P-BICG -csv D",
			[]string{"resilience", "-sdc", "-runs", "5", "-apps", "P-BICG", "-csv", "@CSV@", "-quiet"}},
		{"sim", "gpusim -app P-BICG", []string{"sim", "-app", "P-BICG"}},
		{"sim-lrr", "gpusim -app P-BICG -scheme correction -scheduler lrr",
			[]string{"sim", "-app", "P-BICG", "-scheme", "correction", "-scheduler", "lrr"}},
		{"sim-trace", "gpusim -app P-BICG -scheme detection -trace T",
			[]string{"sim", "-app", "P-BICG", "-scheme", "detection", "-trace", "@TRACE@"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			csvDir, trace := filepath.Join(dir, "csv"), filepath.Join(dir, "trace.json")
			args := make([]string, len(tc.args))
			for i, a := range tc.args {
				args[i] = strings.NewReplacer("@CSV@", csvDir, "@TRACE@", trace).Replace(a)
			}
			code, stdout, stderr := repro(t, args...)
			if code != 0 {
				t.Fatalf("repro %s (was %s): exit %d: %s", strings.Join(args, " "), tc.old, code, stderr)
			}
			golden := filepath.Join("testdata", "golden", tc.name)
			compareFile(t, filepath.Join(golden, "stdout"), []byte(strings.ReplaceAll(stdout, trace, "<trace>")))

			want, _ := filepath.Glob(filepath.Join(golden, "csv", "*"))
			got, _ := filepath.Glob(filepath.Join(csvDir, "*"))
			if len(got) != len(want) {
				t.Errorf("exported %d CSV files, want %d", len(got), len(want))
			}
			for _, w := range want {
				compareFile(t, w, readFile(t, filepath.Join(csvDir, filepath.Base(w))))
			}
			if strings.Contains(tc.old, "-trace") {
				compareFile(t, filepath.Join(golden, "trace.json"), readFile(t, trace))
			}
		})
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// compareFile fails the test unless got equals the golden file's bytes,
// reporting the first differing line.
func compareFile(t *testing.T, golden string, got []byte) {
	t.Helper()
	want := readFile(t, golden)
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Errorf("%s differs at line %d:\n got  %q\n want %q", golden, i+1, g[i], w[i])
			return
		}
	}
	t.Errorf("%s: got %d lines, want %d", golden, len(g), len(w))
}
