package main

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// recordPath is the published record: the stdout of
// `repro -runs 150 -quiet -csv docs/csv`, which CI's record drift gate
// reruns in full.
const recordPath = "../../docs/repro-150runs.txt"

// TestRecordContainsGoldens: the published record prints what the code
// prints. Tables I–III and Figs. 2, 3, 4 and 7 depend on no campaign seed
// or run count, and TestGoldenOutputs pins each of them to the code; each
// golden, trimmed of its leading and trailing blank lines, must appear
// verbatim in the record.
func TestRecordContainsGoldens(t *testing.T) {
	record := string(readFile(t, recordPath))
	for _, name := range []string{"table1", "table2", "table3", "fig2", "fig3", "fig4", "fig7"} {
		golden := strings.Trim(string(readFile(t, filepath.Join("testdata", "golden", name, "stdout"))), "\n")
		if !strings.Contains(record, golden) {
			t.Errorf("%s is not in %s as testdata/golden/%s/stdout prints it: regenerate the record", name, recordPath, name)
		}
	}
}

// TestExperimentsQuotesRecord: every bold number in EXPERIMENTS.md's
// Fig. 7 and Fig. 9 summary rows and notes is quoted from the published
// record, which prints each measured average as "measured <number>".
func TestExperimentsQuotesRecord(t *testing.T) {
	record := string(readFile(t, recordPath))
	doc := string(readFile(t, "../../EXPERIMENTS.md"))
	bold := regexp.MustCompile(`\*\*([^*]+)\*\*`)
	number := regexp.MustCompile(`[+-]?[0-9]+(?:\.[0-9]+)?%`)
	for _, part := range []struct{ name, text string }{
		{"Fig. 7 summary row", docLine(t, doc, "| Fig. 7 |")},
		{"Fig. 9 summary row", docLine(t, doc, "| Fig. 9 |")},
		{"Fig. 7 notes", docSection(t, doc, "### Fig. 7 ")},
		{"Fig. 9 notes", docSection(t, doc, "### Fig. 9 ")},
	} {
		var nums []string
		for _, m := range bold.FindAllStringSubmatch(part.text, -1) {
			nums = append(nums, number.FindAllString(m[1], -1)...)
		}
		if len(nums) == 0 {
			t.Errorf("EXPERIMENTS.md %s quotes no bold measured number", part.name)
		}
		for _, n := range nums {
			if !strings.Contains(record, "measured "+n) {
				t.Errorf("EXPERIMENTS.md %s says %s, which %s does not print", part.name, n, recordPath)
			}
		}
	}
}

// docLine returns the one line of doc that starts with prefix.
func docLine(t *testing.T, doc, prefix string) string {
	t.Helper()
	for _, l := range strings.Split(doc, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	t.Fatalf("EXPERIMENTS.md has no line starting %q", prefix)
	return ""
}

// docSection returns the text of doc from the heading that starts with
// heading up to the next heading.
func docSection(t *testing.T, doc, heading string) string {
	t.Helper()
	i := strings.Index(doc, "\n"+heading)
	if i < 0 {
		t.Fatalf("EXPERIMENTS.md has no heading %q", heading)
	}
	rest := doc[i+1:]
	if j := strings.Index(rest[len(heading):], "\n#"); j >= 0 {
		return rest[:len(heading)+j]
	}
	return rest
}
