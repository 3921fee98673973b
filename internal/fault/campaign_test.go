package fault

import (
	"math/rand"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// TestBatchedChunkBoundaries: claims are contiguous [lo, hi) chunks of at
// most mem.BatchLanes runs whose boundaries depend only on the range, never
// on scheduling — the property that keeps batched shards mergeable — and
// every run of every claim is tallied once.
func TestBatchedChunkBoundaries(t *testing.T) {
	const runs = 150
	seen := make(map[int]int) // run index -> claims covering it
	var starts []int
	c := Campaign{Runs: runs, Seed: 1, Workers: 1}
	res, err := c.ExecuteRangeBatched(0, runs, func(start int, rngs []*rand.Rand) ([]Outcome, error) {
		if len(rngs) > mem.BatchLanes {
			t.Errorf("claim [%d, %d) exceeds one %d-lane sweep", start, start+len(rngs), mem.BatchLanes)
		}
		starts = append(starts, start)
		outs := make([]Outcome, len(rngs))
		for i := range outs {
			seen[start+i]++
			outs[i] = Masked
		}
		return outs, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaskedRuns != runs {
		t.Fatalf("masked = %d, want %d", res.MaskedRuns, runs)
	}
	for i := 0; i < runs; i++ {
		if seen[i] != 1 {
			t.Errorf("run %d covered by %d claims, want exactly 1", i, seen[i])
		}
	}
	want := []int{0, 64, 128}
	if len(starts) != len(want) {
		t.Fatalf("claim starts = %v, want %v", starts, want)
	}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("claim starts = %v, want %v", starts, want)
		}
	}
}
