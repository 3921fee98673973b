package fault

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

func TestModelValidate(t *testing.T) {
	tests := []struct {
		m  Model
		ok bool
	}{
		{StuckAt{BitsPerWord: 2, Blocks: 1}, true},
		{StuckAt{BitsPerWord: 4, Blocks: 5}, true},
		{StuckAt{BitsPerWord: 0, Blocks: 1}, false},
		{StuckAt{BitsPerWord: 33, Blocks: 1}, false},
		{StuckAt{BitsPerWord: 2, Blocks: 0}, false},
	}
	for _, tt := range tests {
		if err := tt.m.Validate(); (err == nil) != tt.ok {
			t.Errorf("%v.Validate() = %v, want ok=%v", tt.m, err, tt.ok)
		}
	}
	if got := (StuckAt{BitsPerWord: 3, Blocks: 5}).String(); got != "3-bit/5-block" {
		t.Errorf("String() = %q", got)
	}
}

func TestSetSelectorDistinct(t *testing.T) {
	blocks := []arch.BlockAddr{1, 2, 3, 4, 5, 6, 7, 8}
	s, err := NewSetSelector(blocks)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	got := s.Select(rng, 5, &Scratch{})
	if len(got) != 5 {
		t.Fatalf("selected %d, want 5", len(got))
	}
	seen := map[arch.BlockAddr]bool{}
	for _, b := range got {
		if seen[b] {
			t.Fatalf("duplicate block %d", b)
		}
		seen[b] = true
	}
	// Requesting more than the population returns the whole population.
	if got := s.Select(rng, 100, &Scratch{}); len(got) != 8 {
		t.Errorf("oversized select = %d blocks, want 8", len(got))
	}
	if _, err := NewSetSelector(nil); err == nil {
		t.Error("empty population accepted")
	}
}

func TestWeightedSelectorBias(t *testing.T) {
	blocks := []arch.BlockAddr{10, 20}
	s, err := NewWeightedSelector(blocks, []float64{9, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	hits := map[arch.BlockAddr]int{}
	const trials = 5000
	for i := 0; i < trials; i++ {
		for _, b := range s.Select(rng, 1, &Scratch{}) {
			hits[b]++
		}
	}
	frac := float64(hits[10]) / trials
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("9:1 weighted selection picked heavy block %.3f of the time, want ≈0.9", frac)
	}
}

func TestWeightedSelectorWithoutReplacement(t *testing.T) {
	blocks := []arch.BlockAddr{1, 2, 3}
	s, err := NewWeightedSelector(blocks, []float64{100, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	got := s.Select(rng, 3, &Scratch{})
	seen := map[arch.BlockAddr]bool{}
	for _, b := range got {
		if seen[b] {
			t.Fatalf("duplicate %d", b)
		}
		seen[b] = true
	}
	if len(got) != 3 {
		t.Fatalf("selected %d, want 3", len(got))
	}
}

func TestWeightedSelectorValidation(t *testing.T) {
	if _, err := NewWeightedSelector([]arch.BlockAddr{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewWeightedSelector([]arch.BlockAddr{1}, []float64{-1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewWeightedSelector([]arch.BlockAddr{1, 2}, []float64{0, 0}); err == nil {
		t.Error("zero total weight accepted")
	}
}

// TestWeightedSelectorRejectsUndrawableWeights: every weight must be
// positive and finite, and so must their sum. A zero weight leaves its
// block undrawable, so a draw of as many blocks as the selector holds
// never returns; miss weights are served from disk, so the constructor is
// where that input fails closed.
func TestWeightedSelectorRejectsUndrawableWeights(t *testing.T) {
	for _, w := range [][]float64{
		{1, 0}, {0, 1}, {1, math.NaN()}, {1, math.Inf(1)}, {math.MaxFloat64, math.MaxFloat64},
	} {
		if _, err := NewWeightedSelector([]arch.BlockAddr{0, 1}, w); err == nil {
			t.Errorf("weights %v accepted", w)
		}
	}
}

func TestInjectPlacesExactBitCount(t *testing.T) {
	m := mem.New()
	b, err := m.Alloc("data", 10*arch.BlockBytes, false)
	if err != nil {
		t.Fatal(err)
	}
	// Fill with a known pattern so stuck bits are observable in both
	// directions.
	for i := 0; i < b.Len4(); i++ {
		m.WriteWord(b.ElemAddr(i), 0x55555555)
	}
	sel, err := NewSetSelector([]arch.BlockAddr{b.FirstBlock() + 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	inj, err := Inject(m, rng, StuckAt{BitsPerWord: 4, Blocks: 1}, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	blocks := inj.Blocks
	if len(blocks) != 1 || blocks[0] != b.FirstBlock()+2 {
		t.Fatalf("faulted blocks = %v", blocks)
	}
	// Exactly one word of the block carries exactly 4 stuck bits.
	faults := m.Faults()
	if len(faults) != 1 || faults[0].WordAddr.Block() != blocks[0] {
		t.Fatalf("faults = %+v, want one word in block %d", faults, blocks[0])
	}
	if n := bits.OnesCount32(faults[0].StuckHigh | faults[0].StuckLow); n != 4 {
		t.Errorf("stuck bits = %d, want 4", n)
	}
	// Half the stuck values coincide with the stored pattern on average, so
	// a read sees at most 4 flips, and none when SECDED corrects the one
	// effective flip.
	got := m.ReadWord(faults[0].WordAddr)
	if d := bits.OnesCount32(got ^ 0x55555555); d == 1 || d > 4 {
		t.Errorf("read flips %d bits, want 0 or 2..4", d)
	}
}

func TestInjectFiveBlocks(t *testing.T) {
	m := mem.New()
	b, err := m.Alloc("data", 64*arch.BlockBytes, false)
	if err != nil {
		t.Fatal(err)
	}
	var pop []arch.BlockAddr
	for i := 0; i < 64; i++ {
		pop = append(pop, b.FirstBlock()+arch.BlockAddr(i))
	}
	sel, err := NewSetSelector(pop)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := Inject(m, rand.New(rand.NewSource(2)), StuckAt{BitsPerWord: 2, Blocks: 5}, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(inj.Blocks) != 5 {
		t.Fatalf("faulted %d blocks, want 5", len(inj.Blocks))
	}
	if m.FaultCount() == 0 {
		t.Error("no faults recorded")
	}
}

func TestInjectValidation(t *testing.T) {
	m := mem.New()
	if _, err := Inject(m, rand.New(rand.NewSource(1)), nil, nil, nil); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Inject(m, rand.New(rand.NewSource(1)), StuckAt{}, nil, nil); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := Inject(m, rand.New(rand.NewSource(1)), StuckAt{BitsPerWord: 2, Blocks: 1}, nil, nil); err == nil {
		t.Error("nil selector accepted")
	}
}

// TestInjectDeterministicPerSeed: same seed → same faults.
func TestInjectDeterministicPerSeed(t *testing.T) {
	f := func(seed int64) bool {
		mk := func() uint32 {
			m := mem.New()
			b, err := m.Alloc("d", 8*arch.BlockBytes, false)
			if err != nil {
				return 0
			}
			sel, err := NewSetSelector([]arch.BlockAddr{b.FirstBlock(), b.FirstBlock() + 3})
			if err != nil {
				return 0
			}
			if _, err := Inject(m, rand.New(rand.NewSource(seed)), StuckAt{BitsPerWord: 3, Blocks: 2}, sel, nil); err != nil {
				return 0
			}
			var sig uint32
			for i := 0; i < b.Len4(); i++ {
				sig ^= m.ReadWord(b.ElemAddr(i)) * uint32(i+1)
			}
			return sig
		}
		return mk() == mk()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCampaignCountsAndDeterminism(t *testing.T) {
	c := Campaign{Runs: 200, Seed: 42, Workers: 8}
	run := func(_ int, rng *rand.Rand) (Outcome, error) {
		switch rng.Intn(4) {
		case 0:
			return Masked, nil
		case 1:
			return SDC, nil
		case 2:
			return Detected, nil
		default:
			return Crashed, nil
		}
	}
	r1, err := c.Execute(run)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Execute(run)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("campaign not deterministic: %+v vs %+v", r1, r2)
	}
	if got := r1.MaskedRuns + r1.SDCRuns + r1.DetectedRuns + r1.CrashedRuns; got != 200 {
		t.Errorf("outcome counts sum to %d, want 200", got)
	}
}

func TestCampaignParallelismInvariance(t *testing.T) {
	run := func(_ int, rng *rand.Rand) (Outcome, error) {
		if rng.Float64() < 0.3 {
			return SDC, nil
		}
		return Masked, nil
	}
	serial, err := Campaign{Runs: 300, Seed: 7, Workers: 1}.Execute(run)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Campaign{Runs: 300, Seed: 7, Workers: 16}.Execute(run)
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Errorf("results differ by worker count: %+v vs %+v", serial, parallel)
	}
}

func TestCampaignErrorAborts(t *testing.T) {
	wantErr := errors.New("boom")
	var calls atomic.Int64
	_, err := Campaign{Runs: 1000, Seed: 1, Workers: 4}.Execute(func(i int, _ *rand.Rand) (Outcome, error) {
		calls.Add(1)
		if i == 10 {
			return 0, wantErr
		}
		return Masked, nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if calls.Load() == 1000 {
		t.Error("campaign did not abort early")
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := (Campaign{Runs: 0}).Execute(func(int, *rand.Rand) (Outcome, error) { return Masked, nil }); err == nil {
		t.Error("zero runs accepted")
	}
	if _, err := (Campaign{Runs: 10}).Execute(nil); err == nil {
		t.Error("nil run func accepted")
	}
	if _, err := (Campaign{Runs: 10, Seed: 1}).Execute(func(int, *rand.Rand) (Outcome, error) { return Outcome(99), nil }); err == nil {
		t.Error("invalid outcome accepted")
	}
}

func TestResultStatistics(t *testing.T) {
	r := Result{Runs: 1000, SDCRuns: 500, MaskedRuns: 500}
	if got := r.SDCRate(); got != 0.5 {
		t.Errorf("SDCRate = %v, want 0.5", got)
	}
	// 1.96·sqrt(0.25/1000) ≈ 0.031 — the paper's ±3% at 1000 runs.
	hw := r.ConfidenceHalfWidth()
	if hw < 0.030 || hw > 0.032 {
		t.Errorf("half width = %v, want ≈0.031", hw)
	}
	var empty Result
	if empty.SDCRate() != 0 || empty.ConfidenceHalfWidth() != 0 {
		t.Error("empty result stats not zero")
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		Masked: "masked", SDC: "sdc", Detected: "detected", Crashed: "crashed",
		DUE: "due", Outcome(9): "outcome(9)",
	} {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}

// TestCampaignRecordsDUE: DUE outcomes are a first-class campaign count —
// recorded in the result, reconciled in the run total, and surfaced on the
// live outcome counter under the "due" label.
func TestCampaignRecordsDUE(t *testing.T) {
	reg := telemetry.NewRegistry()
	res, err := Campaign{Runs: 20, Seed: 3, Workers: 4, Metrics: reg}.Execute(
		func(i int, _ *rand.Rand) (Outcome, error) {
			if i%4 == 0 {
				return DUE, nil
			}
			return Masked, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.DUERuns != 5 || res.MaskedRuns != 15 {
		t.Errorf("result = %+v, want 5 DUE / 15 masked", res)
	}
	var total int
	for _, o := range Outcomes() {
		total += res.Count(o)
	}
	if total != res.Runs {
		t.Errorf("outcome counts sum to %d, want %d", total, res.Runs)
	}
	s, ok := reg.Snapshot().Get("dcrm_fault_runs_total", telemetry.Label{Name: "outcome", Value: "due"})
	if !ok || int(s.Value) != 5 {
		t.Errorf("counter outcome=due = %+v, want 5", s)
	}
}

func BenchmarkCampaignOverhead(b *testing.B) {
	c := Campaign{Runs: 100, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Execute(func(int, *rand.Rand) (Outcome, error) { return Masked, nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCampaignMetrics asserts the live outcome counters reconcile with the
// campaign result and that attaching a registry does not change outcomes.
func TestCampaignMetrics(t *testing.T) {
	run := func(i int, _ *rand.Rand) (Outcome, error) {
		switch i % 3 {
		case 0:
			return Masked, nil
		case 1:
			return SDC, nil
		default:
			return Detected, nil
		}
	}
	bare, err := Campaign{Runs: 30, Seed: 5, Workers: 4}.Execute(run)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	inst, err := Campaign{Runs: 30, Seed: 5, Workers: 4, Metrics: reg}.Execute(run)
	if err != nil {
		t.Fatal(err)
	}
	if inst != bare {
		t.Errorf("instrumented result %+v differs from bare %+v", inst, bare)
	}
	snap := reg.Snapshot()
	for outcome, want := range map[string]int{"masked": inst.MaskedRuns, "sdc": inst.SDCRuns, "detected": inst.DetectedRuns} {
		s, ok := snap.Get("dcrm_fault_runs_total", telemetry.Label{Name: "outcome", Value: outcome})
		if !ok || int(s.Value) != want {
			t.Errorf("counter outcome=%s = %+v, want %d", outcome, s, want)
		}
	}
}
