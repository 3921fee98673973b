// Injection scratch: reusable per-worker buffers that take the steady-state
// campaign hot path to (near) zero allocations per run. Every run of a
// campaign draws a block permutation (selector), an output block list, and —
// for the bit-pattern models — a 32-element bit permutation per block;
// without reuse those are three heap allocations per run, visible as the
// bulk of the campaign allocs/op baseline. Scratch carries those buffers
// across runs. Correctness is unchanged by construction: every *Into path
// consumes the rng in exactly the same order as its allocating counterpart
// and produces the same values, so campaign results stay bit-identical —
// the fork-parity tests gate on that.
package fault

import (
	"math/rand"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

// Scratch is one worker's reusable injection scratch. The zero value is
// ready to use. Not safe for concurrent use; campaigns keep one per worker
// (the experiments checkpoint recycles them on a free-list). Slices
// returned by injection paths using a Scratch are valid only until the next
// run on the same Scratch.
type Scratch struct {
	perm   []int            // selector block-permutation scratch
	perm32 []int            // per-word bit-permutation scratch
	blocks []arch.BlockAddr // selected-block output scratch
}

// permInto writes a pseudo-random permutation of [0,n) into *buf, growing
// it as needed, consuming rng exactly like rand.Perm(n) (same algorithm,
// same draws) so pooled and allocating paths stay bit-identical.
func permInto(rng *rand.Rand, n int, buf *[]int) []int {
	m := *buf
	if cap(m) < n {
		m = make([]int, n)
	} else {
		m = m[:n]
	}
	// The i=0 iteration swaps m[0] with itself but still consumes one
	// Intn(1) draw — rand.Perm keeps it for stream compatibility, and so
	// must we.
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	*buf = m
	return m
}

// selectBlocks draws n target blocks from sel, routing through the
// scratch-reusing SelectInto when the env carries a Scratch and the
// selector supports it; otherwise it falls back to the allocating Select.
// Both paths consume the rng identically.
func selectBlocks(rng *rand.Rand, sel Selector, n int, env *Env) []arch.BlockAddr {
	if env != nil && env.Scratch != nil {
		if si, ok := sel.(interface {
			SelectInto(*rand.Rand, int, *Scratch) []arch.BlockAddr
		}); ok {
			return si.SelectInto(rng, n, env.Scratch)
		}
	}
	return sel.Select(rng, n)
}

// perm32 returns a permutation of [0,32) — the per-word bit order the
// bit-pattern models slice their stuck/flipped bits from — reusing env
// scratch when available. Identical draws to rng.Perm(32).
func perm32(rng *rand.Rand, env *Env) []int {
	if env != nil && env.Scratch != nil {
		return permInto(rng, 32, &env.Scratch.perm32)
	}
	return rng.Perm(32)
}
