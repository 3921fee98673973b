package fault

import (
	"errors"
	"fmt"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/mem"
	"github.com/datacentric-gpu/dcrm/internal/metrics"
)

var errDetected = errors.New("detected sentinel")

// classifyFixture builds a root image with a read-only input and a
// writable output, plus a golden post-run fork whose output is 1,2,3,...
func classifyFixture(t *testing.T) (*mem.Memory, *mem.Buffer, *mem.Memory, *Classifier) {
	t.Helper()
	root := mem.New()
	if _, err := root.Alloc("in", 256, true); err != nil {
		t.Fatal(err)
	}
	out, err := root.Alloc("out", 256, false)
	if err != nil {
		t.Fatal(err)
	}
	goldenRun := func(m *mem.Memory) {
		for i := 0; i < out.Len4(); i++ {
			m.WriteF32(out.ElemAddr(i), float32(i+1))
		}
	}
	goldenPost := root.Fork()
	goldenRun(goldenPost)
	output := func(m *mem.Memory) []float32 { return m.ReadF32Slice(out, out.Len4()) }
	c := &Classifier{
		Golden:     output(goldenPost),
		GoldenPost: goldenPost,
		Metric:     metrics.Metric{Kind: metrics.VectorDeviation, Threshold: 3},
		DetectErr:  errDetected,
	}
	return root, out, goldenPost, c
}

// classifyCase is one lane of a classification claim: how its run ended,
// its post-run fork, the verdict it must get, and whether the metric path
// must extract its output (only divergent error-free lanes may).
type classifyCase struct {
	name    string
	runErr  error
	fork    *mem.Memory
	want    Outcome
	extract bool
}

// classifyCases builds one lane of every kind on fresh forks of the
// fixture's root, named by the behaviour each pins.
func classifyCases(root *mem.Memory, out *mem.Buffer) map[string]classifyCase {
	// withOutput returns a fork whose output word i holds f(i).
	withOutput := func(f func(i int) float32) *mem.Memory {
		m := root.Fork()
		for i := 0; i < out.Len4(); i++ {
			m.WriteF32(out.ElemAddr(i), f(i))
		}
		return m
	}
	golden := func(i int) float32 { return float32(i + 1) }
	// One word slightly off: divergent, but within the 3% threshold.
	nudged := withOutput(golden)
	nudged.WriteF32(out.ElemAddr(0), 1.0000002)
	cases := []classifyCase{
		{name: "detected", runErr: fmt.Errorf("wrapped: %w", errDetected), fork: root.Fork(), want: Detected},
		{name: "crashed", runErr: errors.New("out of bounds"), fork: root.Fork(), want: Crashed},
		{name: "due", runErr: fmt.Errorf("ecc: %w", ErrUncorrectable), fork: root.Fork(), want: DUE},
		// ECC sees the corruption before the software check would.
		{name: "due-outranks-detected", runErr: fmt.Errorf("%w (during check: %w)", ErrUncorrectable, errDetected), fork: root.Fork(), want: DUE},
		{name: "identical", fork: withOutput(golden), want: Masked},
		// Every output word far off: past the threshold.
		{name: "sdc", fork: withOutput(func(i int) float32 { return float32(i+1) * 100 }), want: SDC, extract: true},
		{name: "within-threshold", fork: nudged, want: Masked, extract: true},
	}
	m := make(map[string]classifyCase, len(cases))
	for _, c := range cases {
		m[c.name] = c
	}
	return m
}

// classifyClaim classifies the lanes as one ClassifyBatch claim and checks
// every verdict and which lanes had their output extracted.
func classifyClaim(t *testing.T, c *Classifier, out *mem.Buffer, lanes []classifyCase) {
	t.Helper()
	errs := make([]error, len(lanes))
	forks := make([]*mem.Memory, len(lanes))
	for i, ln := range lanes {
		errs[i], forks[i] = ln.runErr, ln.fork
	}
	extracted := map[*mem.Memory]int{}
	got, err := c.ClassifyBatch(errs, forks, func(m *mem.Memory) []float32 {
		extracted[m]++
		return m.ReadF32Slice(out, out.Len4())
	})
	if err != nil {
		t.Fatalf("%d-lane claim: %v", len(lanes), err)
	}
	if len(got) != len(lanes) {
		t.Fatalf("%d-lane claim returned %d outcomes", len(lanes), len(got))
	}
	for i, ln := range lanes {
		if got[i] != ln.want {
			t.Errorf("%d-lane claim, lane %d (%s) → %v; want %v", len(lanes), i, ln.name, got[i], ln.want)
		}
		want := 0
		if ln.extract {
			want = 1
		}
		if extracted[ln.fork] != want {
			t.Errorf("%d-lane claim, lane %d (%s): output extracted %d times, want %d",
				len(lanes), i, ln.name, extracted[ln.fork], want)
		}
	}
}

// classifyOneLane runs each named case as its own one-lane claim.
func classifyOneLane(t *testing.T, names ...string) {
	t.Helper()
	root, out, _, c := classifyFixture(t)
	cases := classifyCases(root, out)
	for _, name := range names {
		classifyClaim(t, c, out, []classifyCase{cases[name]})
	}
}

func TestClassifyErrors(t *testing.T) {
	classifyOneLane(t, "detected", "crashed")
}

// TestClassifyDUE: a run aborted by a detected-uncorrectable error
// classifies as DUE, and the check outranks the scheme's own detection
// sentinel.
func TestClassifyDUE(t *testing.T) {
	classifyOneLane(t, "due", "due-outranks-detected")
}

func TestClassifyIdenticalRunIsMaskedWithoutOutputExtraction(t *testing.T) {
	classifyOneLane(t, "identical")
}

// TestClassifyDivergentRun: a divergent run falls back to output
// extraction, and the metric decides SDC or Masked.
func TestClassifyDivergentRun(t *testing.T) {
	classifyOneLane(t, "sdc", "within-threshold")
}

// TestClassifyBatchMixedClaim classifies one full claim of mem.BatchLanes
// lanes that cycles through every case, so each verdict is settled in the
// same sweep as lanes of every other kind.
func TestClassifyBatchMixedClaim(t *testing.T) {
	root, out, _, c := classifyFixture(t)
	names := []string{"detected", "crashed", "due", "due-outranks-detected", "identical", "sdc", "within-threshold"}
	lanes := make([]classifyCase, 0, mem.BatchLanes)
	var cases map[string]classifyCase
	for i := 0; i < mem.BatchLanes; i++ {
		if i%len(names) == 0 {
			cases = classifyCases(root, out) // fresh forks for every lane
		}
		lanes = append(lanes, cases[names[i%len(names)]])
	}
	classifyClaim(t, c, out, lanes)
}

// TestClassifyBatchRejectsMalformedClaims: a claim whose error and fork
// counts differ, one wider than a sweep, and an error-free lane without a
// golden post-run image to compare against are errors, not verdicts.
func TestClassifyBatchRejectsMalformedClaims(t *testing.T) {
	root, out, _, c := classifyFixture(t)
	output := func(m *mem.Memory) []float32 { return m.ReadF32Slice(out, out.Len4()) }
	if _, err := c.ClassifyBatch(make([]error, 2), []*mem.Memory{root.Fork()}, output); err == nil {
		t.Error("2 errors for 1 fork accepted")
	}
	wide := make([]*mem.Memory, mem.BatchLanes+1)
	for i := range wide {
		wide[i] = root.Fork()
	}
	if _, err := c.ClassifyBatch(make([]error, len(wide)), wide, output); err == nil {
		t.Errorf("%d-lane claim accepted", len(wide))
	}
	noGolden := *c
	noGolden.GoldenPost = nil
	if _, err := noGolden.ClassifyBatch([]error{nil}, []*mem.Memory{root.Fork()}, output); err == nil {
		t.Error("error-free lane classified without a golden post-run image")
	}
}
