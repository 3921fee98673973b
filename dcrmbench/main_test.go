package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// smokeOptions runs a workload at smoke size inside a test's temp dir.
func smokeOptions(t *testing.T, workload string, traced bool) options {
	t.Helper()
	return options{workload: workload, seed: 1, seconds: 0.01, trace: traced, smoke: true,
		workDir: t.TempDir(), repoRoot: ".."}
}

// checkMetrics asserts that res carries exactly the metrics defs names,
// each with its unit.
func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that every metric is printed with its unit, that no operation
// fails, and that the traced run's spans plus pool idle cover its lanes.
func TestSmoke(t *testing.T) {
	for _, w := range workloadOrder {
		t.Run(w, func(t *testing.T) {
			res, err := run(smokeOptions(t, w, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd)
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("untraced: attempted %d, failed %d, correct %t", res.Attempted, res.Failed, res.Correct)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", d.name, v)
				}
			}

			o := smokeOptions(t, w, true)
			res, err = run(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer)
			if res.Failed != 0 || res.Metrics["failed_frac"].Value != 0 {
				t.Errorf("traced: failed %d, failed_frac %g", res.Failed, res.Metrics["failed_frac"].Value)
			}
			if cov := res.Metrics["bench.span_coverage_frac"].Value; cov < 0.95 || cov > 1.0001 {
				t.Errorf("span coverage %g, want in [0.95, 1]", cov)
			}
			data, err := os.ReadFile(o.tracePath())
			if err != nil {
				t.Fatal(err)
			}
			var events []map[string]any
			if err := json.Unmarshal(data, &events); err != nil || len(events) == 0 {
				t.Errorf("trace file: %d events, %v", len(events), err)
			}
		})
	}
}

// TestWrongReferenceFails feeds every workload's checks a deliberately
// wrong reference: operations must then count as failed.
func TestWrongReferenceFails(t *testing.T) {
	for _, w := range workloadOrder {
		t.Run(w, func(t *testing.T) {
			o := smokeOptions(t, w, false)
			o.wrongRef = true
			res, err := run(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 || res.Correct {
				t.Errorf("attempted %d, failed %d, correct %t: wrong reference went unnoticed",
					res.Attempted, res.Failed, res.Correct)
			}
		})
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the metrics and workloads
// the program prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadOrder) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloadOrder))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
	}
	compare := func(kind string, got []metricDef, names, units []string) {
		if len(got) != len(names) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(names), len(got))
			return
		}
		for i, d := range got {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, m := range spec.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Better != "lower" && m.Better != "higher" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: better %q, bound %g", m.Name, m.Better, m.Bound)
		}
	}
	compare("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range spec.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per_layer %s: better %q", m.Name, m.Better)
		}
	}
	compare("per_layer", perLayer, names, units)
}

func TestParseOptionsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "timing", "--trace", "2"},
		{"--workload", "timing", "--seconds", "0"},
		{"--workload", "timing", "extra"},
	} {
		if _, err := parseOptions(args); err == nil {
			t.Errorf("parseOptions(%q) accepted", args)
		}
	}
}
