package ecc

import (
	"math/bits"
	"math/rand"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// The tests in this file hold the simulator's ECC layer — mem.ReadWord's
// SECDED rule for stuck-at overlays, and the transient model's
// injection-time pre-classification — against this codec, pattern by
// pattern over a word's 32 data bits.

const modelWord = 0xDEADBEEF

// flipData returns the codeword with the data bits in mask flipped and the
// check bits left as written: what a read sees after a fault corrupts a
// stored word's data bits.
func flipData(cw Codeword, mask uint32) Codeword {
	for i := 0; i < DataBits; i++ {
		if mask&(1<<uint(i)) != 0 {
			cw ^= 1 << uint(dataPositions[i]-1)
		}
	}
	return cw
}

// patterns returns every data-bit mask with exactly n bits set, in
// ascending order.
func patterns(n int) []uint32 {
	var out []uint32
	var rec func(from int, mask uint32, left int)
	rec = func(from int, mask uint32, left int) {
		if left == 0 {
			out = append(out, mask)
			return
		}
		for b := from; b <= DataBits-left; b++ {
			rec(b+1, mask|1<<uint(b), left-1)
		}
	}
	rec(0, 0, n)
	return out
}

// modelMemory returns a one-block image whose words hold modelWord, the
// address of its first word, and a selector pinned to its block.
func modelMemory(t *testing.T) (*mem.Memory, arch.Addr, fault.Selector) {
	t.Helper()
	m := mem.New()
	b, err := m.Alloc("word", arch.BlockBytes, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Len4(); i++ {
		m.WriteWord(b.ElemAddr(i), modelWord)
	}
	sel, err := fault.NewSetSelector([]arch.BlockAddr{b.FirstBlock()})
	if err != nil {
		t.Fatal(err)
	}
	return m, b.ElemAddr(0), sel
}

// stuckRead reads the word back through a stuck-at overlay that flips
// exactly the bits in mask.
func stuckRead(t *testing.T, m *mem.Memory, addr arch.Addr, mask uint32) uint32 {
	t.Helper()
	m.ClearFaults()
	if err := m.InjectStuckAt(addr, mask&modelWord, false); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectStuckAt(addr, mask&^modelWord, true); err != nil {
		t.Fatal(err)
	}
	return m.ReadWord(addr)
}

// transient injects one n-flip upset into the word's block with no store
// timeline and returns the pre-classification and the bits applied.
func transient(t *testing.T, n int, seed int64) (fault.Outcome, int) {
	t.Helper()
	m, _, sel := modelMemory(t)
	inj, err := fault.Inject(m, rand.New(rand.NewSource(seed)), fault.Transient{Flips: n, Blocks: 1}, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	for w := 0; w < arch.WordsPerBlock; w++ {
		applied += bits.OnesCount32(m.ReadWord(arch.Addr(w*arch.WordBytes)) ^ modelWord)
	}
	return inj.Pre, applied
}

// TestModelsMatchCodecUpToTwoBits: for every 1-bit (32) and 2-bit (496)
// data-bit pattern, the codec corrects one bit and detects two. The
// models agree: a 1-bit stuck-at pattern reads back as the codec's
// corrected word, a 1-flip transient is pre-classified Masked and a 2-flip
// transient DUE. A 2-bit stuck-at pattern reads back raw, the paper's
// premise that multi-bit stuck-at faults escape SECDED (DESIGN.md §4).
func TestModelsMatchCodecUpToTwoBits(t *testing.T) {
	m, addr, _ := modelMemory(t)
	cw := Encode(modelWord)
	for n, want := range map[int]int{1: 32, 2: 496} {
		ps := patterns(n)
		if len(ps) != want {
			t.Fatalf("%d-bit patterns = %d, want %d", n, len(ps), want)
		}
		for _, mask := range ps {
			got, outcome := Decode(flipData(cw, mask))
			read := stuckRead(t, m, addr, mask)
			switch n {
			case 1:
				if outcome != CorrectedSingle || got != modelWord {
					t.Errorf("mask %#08x: codec = %#08x %v, want %#08x corrected-single", mask, got, outcome, uint32(modelWord))
				}
				if read != got {
					t.Errorf("mask %#08x: stuck-at reads %#08x, codec corrects to %#08x", mask, read, got)
				}
			case 2:
				if outcome != DetectedDouble {
					t.Errorf("mask %#08x: codec = %v, want detected-double", mask, outcome)
				}
				if read != modelWord^mask {
					t.Errorf("mask %#08x: stuck-at reads %#08x, want the raw %#08x", mask, read, modelWord^mask)
				}
			}
		}
	}
	for seed := int64(1); seed <= 32; seed++ {
		if pre, applied := transient(t, 1, seed); pre != fault.Masked || applied != 0 {
			t.Errorf("seed %d: 1-flip transient = %v with %d bits applied, want masked with none", seed, pre, applied)
		}
		if pre, applied := transient(t, 2, seed); pre != fault.DUE || applied != 0 {
			t.Errorf("seed %d: 2-flip transient = %v with %d bits applied, want due with none", seed, pre, applied)
		}
	}
}

// TestCodecBeyondTwoBits pins what the codec does where the models apply
// the raw pattern (stuck-at from two bits, transient from three). Of the
// 4,960 3-bit patterns the codec "corrects" 2,720 into a word other than
// the raw one (a fourth data bit flipped) and returns the raw word for
// the other 2,240; it detects none. Of the 35,960 4-bit patterns it
// detects 35,280 and decodes 680 as clean raw words. The model mismatch
// this measures is a known gap: a real SECDED array would turn most
// 4-flip upsets into DUEs.
func TestCodecBeyondTwoBits(t *testing.T) {
	m, addr, _ := modelMemory(t)
	cw := Encode(modelWord)
	type tally struct{ patterns, otherWord, detected int }
	want := map[int]tally{3: {4960, 2720, 0}, 4: {35960, 0, 35280}}
	for n := 3; n <= 4; n++ {
		var got tally
		for _, mask := range patterns(n) {
			got.patterns++
			word, outcome := Decode(flipData(cw, mask))
			if outcome == DetectedDouble {
				got.detected++
			} else if word != modelWord^mask {
				got.otherWord++
			}
			if read := stuckRead(t, m, addr, mask); read != modelWord^mask {
				t.Fatalf("mask %#08x: stuck-at reads %#08x, want the raw %#08x", mask, read, modelWord^mask)
			}
		}
		if got != want[n] {
			t.Errorf("%d-bit patterns: %+v, want %+v", n, got, want[n])
		}
		for seed := int64(1); seed <= 8; seed++ {
			if pre, applied := transient(t, n, seed); pre != 0 || applied != n {
				t.Errorf("seed %d: %d-flip transient = %v with %d bits applied, want no verdict and %d bits", seed, n, pre, applied, n)
			}
		}
	}
}
