// Injection scratch: reusable per-worker buffers that take the steady-state
// campaign hot path to (near) zero allocations per run. Every run of a
// campaign draws a block permutation (selector), an output block list, and —
// for the bit-pattern models — a 32-element bit permutation per block;
// without reuse those are three heap allocations per run. Scratch carries
// those buffers across runs. Reuse cannot change results: permInto
// consumes the rng exactly like rand.Perm and yields the same
// permutation, so every draw depends on the run's rng alone.
package fault

import (
	"math/rand"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

// Scratch is one worker's reusable injection scratch, which every draw
// uses. The zero value is ready to use. Not safe for concurrent use;
// campaigns keep one per worker (the experiments checkpoint recycles them
// on a free-list). Slices drawn into a Scratch are valid only until the
// next run on it.
type Scratch struct {
	perm    []int            // selector block-permutation scratch
	bitPerm []int            // per-word bit-permutation scratch
	blocks  []arch.BlockAddr // selected-block output scratch
}

// permInto writes a pseudo-random permutation of [0,n) into *buf, growing
// it as needed, consuming rng exactly like rand.Perm(n) (same algorithm,
// same draws).
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
