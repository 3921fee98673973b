package fault

import (
	"fmt"
	"math/bits"
	"math/rand"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// newBurst builds a burst model from parsed parameters (ParseModel).
func newBurst(params map[string]int) (Model, error) {
	if err := paramKeys("burst", params, "width", "words", "blocks"); err != nil {
		return nil, err
	}
	return Burst{
		Width:  param(params, "width", 2),
		Words:  param(params, "words", 2),
		Blocks: param(params, "blocks", 1),
	}, nil
}

// Burst is the multi-bit spatial fault model: a physically clustered
// permanent defect that sticks Width adjacent bit lines across Words
// adjacent 32-bit words inside each selected 128 B block — the
// adjacent-bit × adjacent-word patterns that dominate real multi-bit DRAM
// and SRAM faults. All stuck bits of one burst share a random anchor bit
// position and one polarity (a shorted line drives every crossing cell
// the same way); the word span is clamped to the words the owning data
// object actually covers.
//
// Like StuckAt the burst is a read-path overlay (permanent), but its
// interaction with the memory's SECDED code (package mem's one ECC model)
// is pre-classified per word at injection time against the block's
// current contents: a word whose effective corruption — stuck pattern XOR
// raw bits — is exactly two bits is detected but uncorrectable, so the run
// aborts as a DUE; zero or one effective bits are corrected (and may leave
// the whole run Masked); three or more escape silently and the run
// executes to classification, exactly as StuckAt's wide faults do.
//
// Registry name "burst", parameters "width" (adjacent bits, default 2),
// "words" (adjacent words, default 2), and "blocks" (default 1).
type Burst struct {
	// Width is the number of adjacent stuck bits within each word (1–32).
	Width int
	// Words is the number of adjacent corrupted words within the block.
	Words int
	// Blocks is the number of burst-corrupted blocks per run.
	Blocks int
}

// Name implements Model.
func (b Burst) Name() string { return "burst" }

// Params implements Model: canonical "blocks=N,width=W,words=K".
func (b Burst) Params() string {
	return fmt.Sprintf("blocks=%d,width=%d,words=%d", b.Blocks, b.Width, b.Words)
}

// Validate reports whether the model is usable.
func (b Burst) Validate() error {
	if b.Width < 1 || b.Width > 32 {
		return fmt.Errorf("fault: burst width must be in [1,32], got %d", b.Width)
	}
	if b.Words < 1 || b.Words > arch.WordsPerBlock {
		return fmt.Errorf("fault: burst words must be in [1,%d], got %d", arch.WordsPerBlock, b.Words)
	}
	if b.Blocks < 1 {
		return fmt.Errorf("fault: blocks per run must be positive, got %d", b.Blocks)
	}
	return nil
}

// String renders the model for tables and logs.
func (b Burst) String() string {
	return fmt.Sprintf("%dx%d-burst/%d-block", b.Width, b.Words, b.Blocks)
}

// Inject implements Model. The rng consumption order is fixed per block —
// anchor word, anchor bit, polarity — so campaigns are reproducible from
// (seed, run index) at any worker count.
func (b Burst) Inject(m *mem.Memory, rng *rand.Rand, sel Selector, env *Env) (Injection, error) {
	blocks := sel.Select(rng, b.Blocks, env.Scratch)
	due := false
	for _, blk := range blocks {
		words := targetWords(m, blk)
		w0 := rng.Intn(words)
		bit0 := rng.Intn(33 - b.Width)
		stuckOne := rng.Intn(2) == 0
		mask := uint32((uint64(1)<<uint(b.Width))-1) << uint(bit0)
		end := w0 + b.Words
		if end > words {
			end = words
		}
		for w := w0; w < end; w++ {
			addr := blk.Base() + arch.Addr(w*arch.WordBytes)
			raw := m.ReadWord(addr) // no overlay on this word yet: raw contents
			var faulty uint32
			if stuckOne {
				faulty = raw | mask
			} else {
				faulty = raw &^ mask
			}
			if bits.OnesCount32(faulty^raw) == 2 {
				due = true
			}
			if err := m.InjectStuckAt(addr, mask, stuckOne); err != nil {
				return Injection{}, fmt.Errorf("fault: block %d: %w", blk, err)
			}
		}
	}
	if due {
		return Injection{Blocks: blocks, Pre: DUE}, nil
	}
	return Injection{Blocks: blocks}, nil
}
