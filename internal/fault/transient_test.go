package fault

import (
	"math/bits"
	"math/rand"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

const transientFill = 0xDEADBEEF

// transientFixture builds a 4-block image filled with a known pattern and a
// selector pinned to its second block.
func transientFixture(t *testing.T) (*mem.Memory, *mem.Buffer, arch.BlockAddr, Selector) {
	t.Helper()
	m := mem.New()
	b, err := m.Alloc("data", 4*arch.BlockBytes, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Len4(); i++ {
		m.WriteWord(b.ElemAddr(i), transientFill)
	}
	blk := b.FirstBlock() + 1
	sel, err := NewSetSelector([]arch.BlockAddr{blk})
	if err != nil {
		t.Fatal(err)
	}
	return m, b, blk, sel
}

// diffWords counts buffer words that no longer hold the fill pattern and
// the total bit distance from it.
func diffWords(m *mem.Memory, b *mem.Buffer) (words, flipped int) {
	for i := 0; i < b.Len4(); i++ {
		if got := m.ReadWord(b.ElemAddr(i)); got != transientFill {
			words++
			flipped += bits.OnesCount32(got ^ transientFill)
		}
	}
	return
}

// TestTransientStoreMasking: a store committing at or after the injection
// instant overwrites the flip — the run is pre-classified Masked and the
// image stays clean, before SECDED is consulted.
func TestTransientStoreMasking(t *testing.T) {
	m, buf, blk, sel := transientFixture(t)
	env := &Env{Timeline: &Timeline{
		TotalCycles: 1000,
		// Last store at the final cycle: at ∈ [0,1000) always precedes it.
		StoreBlocks: []arch.BlockAddr{blk}, StoreCycles: []int64{999},
	}}
	inj, err := Inject(m, rand.New(rand.NewSource(3)), Transient{Flips: 3, Blocks: 1}, sel, env)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Pre != Masked {
		t.Errorf("store-masked injection Pre = %v, want Masked", inj.Pre)
	}
	if w, _ := diffWords(m, buf); w != 0 {
		t.Errorf("store-masked injection left %d corrupted words", w)
	}
}

// TestTransientNoStoreNoMasking: a block the replay never stores to has no
// store-commit entry, so the flip persists.
func TestTransientNoStoreNoMasking(t *testing.T) {
	m, buf, _, sel := transientFixture(t)
	env := &Env{Timeline: &Timeline{TotalCycles: 1000}}
	inj, err := Inject(m, rand.New(rand.NewSource(3)), Transient{Flips: 3, Blocks: 1}, sel, env)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Pre != 0 {
		t.Errorf("unmasked injection Pre = %v, want none", inj.Pre)
	}
	if w, f := diffWords(m, buf); w != 1 || f != 3 {
		t.Errorf("flip landed on %d words / %d bits, want 1 word / 3 bits", w, f)
	}
}

// TestTransientWithoutTimelineApplies: no timeline → the flip
// conservatively persists to the end of the run (three flips, which alias
// past SECDED).
func TestTransientWithoutTimelineApplies(t *testing.T) {
	m, buf, _, sel := transientFixture(t)
	inj, err := Inject(m, rand.New(rand.NewSource(5)), Transient{Flips: 3, Blocks: 1}, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Pre != 0 {
		t.Errorf("Pre = %v, want none", inj.Pre)
	}
	if w, f := diffWords(m, buf); w != 1 || f != 3 {
		t.Errorf("flip landed on %d words / %d bits, want 1 word / 3 bits", w, f)
	}
}

// TestTransientSECDED pins the ECC pre-classification ladder: one flip is
// corrected (Masked), two flips abort as DUE, three or more alias past
// SECDED and are applied raw.
func TestTransientSECDED(t *testing.T) {
	tests := []struct {
		flips    int
		wantPre  Outcome
		wantBits int
	}{
		{1, Masked, 0},
		{2, DUE, 0},
		{3, 0, 3},
	}
	for _, tt := range tests {
		m, buf, _, sel := transientFixture(t)
		inj, err := Inject(m, rand.New(rand.NewSource(7)), Transient{Flips: tt.flips, Blocks: 1}, sel, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inj.Pre != tt.wantPre {
			t.Errorf("flips=%d: Pre = %v, want %v", tt.flips, inj.Pre, tt.wantPre)
		}
		if _, f := diffWords(m, buf); f != tt.wantBits {
			t.Errorf("flips=%d: %d bits applied, want %d", tt.flips, f, tt.wantBits)
		}
	}
}

// TestTransientStoreMaskingBeatsDUE: masking precedes ECC — a 2-flip upset
// in a block that is later overwritten is Masked, not DUE.
func TestTransientStoreMaskingBeatsDUE(t *testing.T) {
	m, _, blk, sel := transientFixture(t)
	env := &Env{Timeline: &Timeline{
		TotalCycles: 1000,
		StoreBlocks: []arch.BlockAddr{blk}, StoreCycles: []int64{999},
	}}
	inj, err := Inject(m, rand.New(rand.NewSource(11)), Transient{Flips: 2, Blocks: 1}, sel, env)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Pre != Masked {
		t.Errorf("Pre = %v, want Masked (store masking outranks DUE)", inj.Pre)
	}
}

// TestTransientDeterministicPerSeed: same seed, same timeline → identical
// pre-classification and identical applied corruption.
func TestTransientDeterministicPerSeed(t *testing.T) {
	run := func() (Outcome, int, int) {
		m, buf, _, sel := transientFixture(t)
		inj, err := Inject(m, rand.New(rand.NewSource(21)), Transient{Flips: 4, Blocks: 1}, sel,
			&Env{Timeline: &Timeline{TotalCycles: 500}})
		if err != nil {
			t.Fatal(err)
		}
		w, f := diffWords(m, buf)
		return inj.Pre, w, f
	}
	p1, w1, f1 := run()
	p2, w2, f2 := run()
	if p1 != p2 || w1 != w2 || f1 != f2 {
		t.Errorf("transient injection not deterministic: (%v,%d,%d) vs (%v,%d,%d)", p1, w1, f1, p2, w2, f2)
	}
}

// TestBurstDUEPreclassification: a width-2 burst over all-zero words is
// detected-but-uncorrectable under SECDED in exactly one polarity — the
// stuck-at-one pattern makes two effective flips, the stuck-at-zero
// pattern none — and the opposite holds over all-one words. The same seed
// draws the same polarity in both fixtures, so exactly one must be DUE.
func TestBurstDUEPreclassification(t *testing.T) {
	inject := func(fill uint32) Outcome {
		m := mem.New()
		b, err := m.Alloc("data", 2*arch.BlockBytes, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.Len4(); i++ {
			m.WriteWord(b.ElemAddr(i), fill)
		}
		sel, err := NewSetSelector([]arch.BlockAddr{b.FirstBlock()})
		if err != nil {
			t.Fatal(err)
		}
		inj, err := Inject(m, rand.New(rand.NewSource(17)), Burst{Width: 2, Words: 1, Blocks: 1}, sel, nil)
		if err != nil {
			t.Fatal(err)
		}
		return inj.Pre
	}
	zero, one := inject(0x00000000), inject(0xFFFFFFFF)
	if (zero == DUE) == (one == DUE) {
		t.Errorf("burst over zeros → %v, over ones → %v; exactly one must be DUE", zero, one)
	}
}

// TestBurstAppliesOverlay: the burst is a permanent read-path overlay, so
// it registers in FaultCount and corrupts reads across its word span. Four
// adjacent bits of the alternating fill hold two zeros and two ones, so
// either polarity flips two bits of each word, which escape SECDED.
func TestBurstAppliesOverlay(t *testing.T) {
	m := mem.New()
	b, err := m.Alloc("data", 2*arch.BlockBytes, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Len4(); i++ {
		m.WriteWord(b.ElemAddr(i), 0x55555555)
	}
	sel, err := NewSetSelector([]arch.BlockAddr{b.FirstBlock()})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := Inject(m, rand.New(rand.NewSource(2)), Burst{Width: 4, Words: 2, Blocks: 1}, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(inj.Blocks) != 1 {
		t.Fatalf("faulted blocks = %v", inj.Blocks)
	}
	if m.FaultCount() == 0 {
		t.Error("burst recorded no overlay faults")
	}
	// Every corrupted word shows the same contiguous stuck pattern: two
	// bits differ per word, within Width adjacent positions.
	words := 0
	for i := 0; i < b.Len4(); i++ {
		got := m.ReadWord(b.ElemAddr(i))
		if got == 0x55555555 {
			continue
		}
		words++
		d := got ^ 0x55555555
		if n := bits.OnesCount32(d); n != 2 {
			t.Errorf("word %d: %d bits differ, want 2", i, n)
		}
		span := bits.Len32(d) - bits.TrailingZeros32(d) - 1
		if span >= 4 {
			t.Errorf("word %d: differing bits span %d positions, want <4 (adjacent)", i, span+1)
		}
	}
	if words == 0 || words > 2 {
		t.Errorf("%d corrupted words, want 1..2", words)
	}
}

// TestTimelineLastStore: the timeline finds each stored-to block's final
// commit cycle by binary search over its ascending blocks — a cycle-0
// commit included — and reports blocks before, between and after them,
// and every block of an empty timeline, as never stored.
func TestTimelineLastStore(t *testing.T) {
	tl := &Timeline{TotalCycles: 100, StoreBlocks: []arch.BlockAddr{2, 5, 9}, StoreCycles: []int64{10, 0, 99}}
	want := map[arch.BlockAddr]int64{2: 10, 5: 0, 9: 99}
	for b := arch.BlockAddr(0); b < 12; b++ {
		c, ok := tl.LastStore(b)
		if wc, stored := want[b]; ok != stored || c != wc {
			t.Errorf("LastStore(%d) = %d, %v; want %d, %v", b, c, ok, wc, stored)
		}
	}
	if _, ok := (&Timeline{TotalCycles: 1}).LastStore(0); ok {
		t.Error("an empty timeline reports a store")
	}
}
