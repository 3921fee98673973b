package fault

import (
	"fmt"
	"math/rand"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// newStuckAt builds a stuck-at model from parsed parameters (ParseModel).
func newStuckAt(params map[string]int) (Model, error) {
	if err := paramKeys("stuck-at", params, "bits", "blocks"); err != nil {
		return nil, err
	}
	return StuckAt{
		BitsPerWord: param(params, "bits", 3),
		Blocks:      param(params, "blocks", 1),
	}, nil
}

// StuckAt is the paper's permanent stuck-at fault model (Section II-C):
// for each selected block, one random word receives BitsPerWord stuck-at
// faults at distinct random bit positions, each stuck at 0 or 1 with equal
// probability. The faults live in the memory's read-path overlay, so they
// persist for the whole run — stores refresh the raw bits but the stuck
// positions re-corrupt every subsequent read. Under the SECDED memory
// model a word whose effective corruption is a single bit is corrected on
// read; wider corruption escapes silently (the stuck pattern defeats
// per-read correction), which is exactly the legacy semantics the parity
// and golden gates pin.
//
// Registry name "stuck-at", parameters "bits" (default 3) and "blocks"
// (default 1). The RNG consumption order is frozen: selector draw, then
// per block a word draw, a 32-element permutation, and one polarity draw
// per stuck bit. Changing it would break the byte-identical contract with
// pre-refactor campaign results.
type StuckAt struct {
	// BitsPerWord is the multi-bit fault size (the paper uses 2, 3, 4).
	BitsPerWord int
	// Blocks is the number of faulty data memory blocks per run (1 or 5).
	Blocks int
}

// Name implements Model.
func (s StuckAt) Name() string { return "stuck-at" }

// Params implements Model: canonical "bits=B,blocks=N".
func (s StuckAt) Params() string {
	return fmt.Sprintf("bits=%d,blocks=%d", s.BitsPerWord, s.Blocks)
}

// Validate reports whether the model is usable.
func (s StuckAt) Validate() error {
	if s.BitsPerWord < 1 || s.BitsPerWord > 32 {
		return fmt.Errorf("fault: bits per word must be in [1,32], got %d", s.BitsPerWord)
	}
	if s.Blocks < 1 {
		return fmt.Errorf("fault: blocks per run must be positive, got %d", s.Blocks)
	}
	return nil
}

// String renders the model the way the paper labels its configurations.
func (s StuckAt) String() string {
	return fmt.Sprintf("%d-bit/%d-block", s.BitsPerWord, s.Blocks)
}

// Inject implements Model. The loop body reproduces the pre-refactor
// injector exactly — same selector call, same word-population clamp, same
// rng draws in the same order, same set-then-clear overlay writes — so a
// stuck-at campaign's outcomes are byte-identical to the pre-refactor
// path (gated by TestCampaignForkParity and TestStuckAtGoldenOutcomes).
// The bit order is drawn into env.Scratch by permInto, which consumes the
// rng like rand.Perm(32).
func (s StuckAt) Inject(m *mem.Memory, rng *rand.Rand, sel Selector, env *Env) (Injection, error) {
	blocks := sel.Select(rng, s.Blocks, env.Scratch)
	for _, b := range blocks {
		words := targetWords(m, b)
		word := rng.Intn(words)
		addr := b.Base() + arch.Addr(word*arch.WordBytes)
		var setMask, clrMask uint32
		for _, bit := range permInto(rng, 32, &env.Scratch.bitPerm)[:s.BitsPerWord] {
			if rng.Intn(2) == 0 {
				setMask |= 1 << uint(bit)
			} else {
				clrMask |= 1 << uint(bit)
			}
		}
		if setMask != 0 {
			if err := m.InjectStuckAt(addr, setMask, true); err != nil {
				return Injection{}, fmt.Errorf("fault: block %d: %w", b, err)
			}
		}
		if clrMask != 0 {
			if err := m.InjectStuckAt(addr, clrMask, false); err != nil {
				return Injection{}, fmt.Errorf("fault: block %d: %w", b, err)
			}
		}
	}
	return Injection{Blocks: blocks}, nil
}
