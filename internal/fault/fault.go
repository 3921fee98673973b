// Package fault implements the paper's fault-injection methodology
// (Section II-C), generalized into a table of named fault models.
//
// A Model is one named, parameterized corruption pattern; ParseModel
// maps spec strings ("stuck-at:bits=3,blocks=1", "transient:flips=2",
// "burst:width=2,words=2") to validated Model values, so CLIs and the
// daemon accept models by name. Three models are built in:
//
//   - StuckAt — the paper's permanent stuck-at faults: 2–4 bits stuck in
//     one random word of each selected 128 B block, living in the memory
//     read-path overlay for the whole run.
//   - Transient — a single-event upset: a bit flip at a deterministic
//     instant of the replay timeline, overwritten (masked) by later
//     stores and corrected or detected-uncorrectable by SECDED ECC.
//   - Burst — multi-bit spatial faults: adjacent-bit × adjacent-word
//     stuck patterns within one block, with per-word ECC pre-
//     classification against the block's contents.
//
// Block targeting is factored out of the models into Selectors (the
// hot/rest split of Fig. 6, the L1-miss-weighted whole-space selection of
// Fig. 9), and campaigns of many independent runs execute in parallel
// with binomial confidence intervals. Runs classify into the Outcomes
// taxonomy — Masked, SDC, Detected, Crashed, and DUE (detected but
// uncorrectable; the run aborts) — in the canonical Outcomes() order that
// telemetry labels and CSV columns share.
//
// Campaigns are reproducible by construction: run i draws from an rng
// derived from (Campaign.Seed, i), never from goroutine scheduling, and
// every model consumes that rng in a frozen order, so a campaign's Result
// is identical at any Workers count. Model identity (ModelKey: name plus
// canonical parameters) folds into every result-store key, so cached
// results never alias across models. The experiments package builds on
// both properties to keep whole-suite parallel runs bit-identical to
// serial ones across arbitrarily large fault matrices.
package fault

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

// Selector chooses the target blocks for one run.
type Selector interface {
	// Select returns n target blocks (repeats allowed only if the
	// underlying population is smaller than n).
	Select(rng *rand.Rand, n int) []arch.BlockAddr
}

// SetSelector selects uniformly from a fixed block population — the hot
// set or the rest-of-memory set of Fig. 6.
type SetSelector struct {
	blocks []arch.BlockAddr
}

// NewSetSelector builds a selector over the population. The slice is copied.
func NewSetSelector(blocks []arch.BlockAddr) (*SetSelector, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("fault: empty block population")
	}
	return &SetSelector{blocks: append([]arch.BlockAddr(nil), blocks...)}, nil
}

// Size returns the population size.
func (s *SetSelector) Size() int { return len(s.blocks) }

// Select implements Selector: n distinct blocks when possible.
func (s *SetSelector) Select(rng *rand.Rand, n int) []arch.BlockAddr {
	if n >= len(s.blocks) {
		return append([]arch.BlockAddr(nil), s.blocks...)
	}
	idx := rng.Perm(len(s.blocks))[:n]
	out := make([]arch.BlockAddr, n)
	for i, j := range idx {
		out[i] = s.blocks[j]
	}
	return out
}

// SelectInto is Select drawing into reusable scratch: identical rng
// consumption and identical chosen blocks, but the permutation and output
// buffers come from sc. The returned slice (which may alias the selector's
// own population when n covers it — callers must not mutate it) is valid
// only until the next SelectInto with the same scratch.
func (s *SetSelector) SelectInto(rng *rand.Rand, n int, sc *Scratch) []arch.BlockAddr {
	if n >= len(s.blocks) {
		// Full population: Select copies here purely for ownership; the
		// scratch contract makes the copy unnecessary. No rng draws either way.
		return s.blocks
	}
	idx := permInto(rng, len(s.blocks), &sc.perm)[:n]
	out := sc.blocks[:0]
	for _, j := range idx {
		out = append(out, s.blocks[j])
	}
	sc.blocks = out
	return out
}

// WeightedSelector selects blocks with probability proportional to a weight
// (the paper's Fig. 8 methodology: L1-missed access counts, since misses
// expose data to the L2/DRAM fault domain).
type WeightedSelector struct {
	blocks []arch.BlockAddr
	cum    []float64 // cumulative weights
}

// NewWeightedSelector builds a selector; weights must be non-negative with
// a positive sum, one per block.
func NewWeightedSelector(blocks []arch.BlockAddr, weights []float64) (*WeightedSelector, error) {
	if len(blocks) == 0 || len(blocks) != len(weights) {
		return nil, fmt.Errorf("fault: need matching non-empty blocks (%d) and weights (%d)",
			len(blocks), len(weights))
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("fault: weight %d is %v; must be non-negative", i, w)
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("fault: weights sum to %v; must be positive", total)
	}
	return &WeightedSelector{blocks: append([]arch.BlockAddr(nil), blocks...), cum: cum}, nil
}

// Select implements Selector: n draws without replacement (by rejection).
func (s *WeightedSelector) Select(rng *rand.Rand, n int) []arch.BlockAddr {
	if n > len(s.blocks) {
		n = len(s.blocks)
	}
	total := s.cum[len(s.cum)-1]
	seen := make(map[arch.BlockAddr]bool, n)
	out := make([]arch.BlockAddr, 0, n)
	for len(out) < n {
		x := rng.Float64() * total
		i := searchCum(s.cum, x)
		b := s.blocks[i]
		if seen[b] {
			continue
		}
		seen[b] = true
		out = append(out, b)
	}
	return out
}

// SelectInto is Select drawing into reusable scratch: identical rng
// consumption (the rejection loop's duplicate verdicts match the map-based
// path exactly) and identical chosen blocks, with the output buffer reused
// and the duplicate check done by linear scan — n is a handful of blocks.
// The returned slice is valid only until the next SelectInto with the same
// scratch.
func (s *WeightedSelector) SelectInto(rng *rand.Rand, n int, sc *Scratch) []arch.BlockAddr {
	if n > len(s.blocks) {
		n = len(s.blocks)
	}
	total := s.cum[len(s.cum)-1]
	out := sc.blocks[:0]
	for len(out) < n {
		x := rng.Float64() * total
		i := searchCum(s.cum, x)
		b := s.blocks[i]
		dup := false
		for _, p := range out {
			if p == b {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		out = append(out, b)
	}
	sc.blocks = out
	return out
}

// searchCum returns the first index whose cumulative weight exceeds x.
func searchCum(cum []float64, x float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
