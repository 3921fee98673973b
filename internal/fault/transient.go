package fault

import (
	"fmt"
	"math/rand"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// newTransient builds a transient model from parsed parameters (ParseModel).
func newTransient(params map[string]int) (Model, error) {
	if err := paramKeys("transient", params, "flips", "blocks"); err != nil {
		return nil, err
	}
	return Transient{
		Flips:  param(params, "flips", 2),
		Blocks: param(params, "blocks", 1),
	}, nil
}

// Transient is the single-event-upset (SEU/MBU) model: a one-off bit flip
// of Flips distinct bits in one random word of each selected block,
// injected at a deterministic instant derived from (seed, run index) —
// the per-run rng draws the instant uniformly over the replay span in
// Env.Timeline. Unlike StuckAt the corruption is ordinary stored data,
// not a read-path overlay, so later stores genuinely overwrite it.
//
// Classification happens in two layers at injection time, in this
// precedence order (both are decided before the functional run):
//
//  1. Store masking. If the timeline shows the block's last store commits
//     at or after the injection instant, the flipped word is rewritten
//     with fresh data (and fresh ECC check bits) before the end of the
//     run, so the run is pre-classified Masked. With no timeline the flip
//     conservatively persists.
//  2. ECC. Memory is SECDED-protected (package mem's one model). A
//     transient flip corrupts data and leaves the stored check bits
//     consistent with the original word, so the syndrome sees exactly
//     Flips flipped bits: one flip is corrected (Masked), two flips are
//     detected but uncorrectable — the run aborts as a DUE — and three or
//     more alias past SECDED and are applied silently.
//
// Flips that survive both layers are applied as a raw XOR write
// (mem.FlipBits) and the run executes functionally; a flip in data the
// application never reads still ends up Masked by output comparison.
//
// Registry name "transient", parameters "flips" (default 2) and "blocks"
// (default 1).
type Transient struct {
	// Flips is the upset size: how many distinct bits of the target word
	// flip (1 = classic SEU; ≥2 = word-level MBU).
	Flips int
	// Blocks is the number of upset blocks per run (one word each).
	Blocks int
}

// Name implements Model.
func (t Transient) Name() string { return "transient" }

// Params implements Model: canonical "blocks=N,flips=F".
func (t Transient) Params() string {
	return fmt.Sprintf("blocks=%d,flips=%d", t.Blocks, t.Flips)
}

// Validate reports whether the model is usable.
func (t Transient) Validate() error {
	if t.Flips < 1 || t.Flips > 32 {
		return fmt.Errorf("fault: transient flips must be in [1,32], got %d", t.Flips)
	}
	if t.Blocks < 1 {
		return fmt.Errorf("fault: blocks per run must be positive, got %d", t.Blocks)
	}
	return nil
}

// String renders the model for tables and logs.
func (t Transient) String() string {
	return fmt.Sprintf("%d-flip-seu/%d-block", t.Flips, t.Blocks)
}

// Inject implements Model. The rng consumption order is fixed per block —
// word draw, bit permutation, injection-instant draw — so campaigns are
// reproducible from (seed, run index) at any worker count.
func (t Transient) Inject(m *mem.Memory, rng *rand.Rand, sel Selector, env *Env) (Injection, error) {
	tl := env.Timeline
	blocks := sel.Select(rng, t.Blocks, env.Scratch)
	applied := false
	due := false
	for _, b := range blocks {
		words := targetWords(m, b)
		word := rng.Intn(words)
		addr := b.Base() + arch.Addr(word*arch.WordBytes)
		var mask uint32
		for _, bit := range permInto(rng, 32, &env.Scratch.bitPerm)[:t.Flips] {
			mask |= 1 << uint(bit)
		}
		var at int64
		if tl != nil && tl.TotalCycles > 0 {
			at = rng.Int63n(tl.TotalCycles)
		}
		// Layer 1: store masking (see the type comment for precedence).
		if tl != nil {
			if last, ok := tl.LastStore[b]; ok && last >= at {
				continue
			}
		}
		// Layer 2: SECDED pre-classification.
		switch t.Flips {
		case 1:
			continue // corrected on first read or scrub
		case 2:
			due = true
			continue // detected uncorrectable: the run aborts
		}
		if err := m.FlipBits(addr, mask); err != nil {
			return Injection{}, fmt.Errorf("fault: block %d: %w", b, err)
		}
		applied = true
	}
	switch {
	case due:
		// A detected-uncorrectable error aborts the run even if another
		// block's flip would have been applied silently.
		return Injection{Blocks: blocks, Pre: DUE}, nil
	case !applied:
		return Injection{Blocks: blocks, Pre: Masked}, nil
	}
	return Injection{Blocks: blocks}, nil
}
