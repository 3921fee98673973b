// Parity tests for the injection scratch: permInto must consume the rng
// exactly like rand.Perm, or campaign results would silently change with
// the draw buffers.
package fault

import (
	"math/rand"
	"testing"
)

func TestRNGReuseParity(t *testing.T) {
	fresh := rand.New(rand.NewSource(12345))
	reused := rand.New(rand.NewSource(0))
	reused.Seed(12345)
	for i := 0; i < 1000; i++ {
		if a, b := fresh.Int63(), reused.Int63(); a != b {
			t.Fatalf("draw %d: %d != %d", i, a, b)
		}
	}
}

func TestPermIntoParity(t *testing.T) {
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	var buf []int
	for n := 0; n < 40; n++ {
		pa := a.Perm(n)
		pb := permInto(b, n, &buf)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("n=%d i=%d: %d != %d", n, i, pa[i], pb[i])
			}
		}
	}
}
