package experiments

import (
	"fmt"
	"sync"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
)

// maxCampaignAllocsPerRun is the steady-state allocation budget for one
// campaign run on a warm checkpoint. With the injection scratch pooled and
// per-run rngs reseeded in place, a run costs under 4 heap allocations;
// the pre-pooling path cost ~7 (the committed BENCH_campaign baseline was
// 713 allocs per 100-run Fig. 6 campaign). The bound leaves headroom for
// runtime noise while still failing loudly if a hot-path allocation
// regresses back in.
const maxCampaignAllocsPerRun = 5.0

// TestCampaignAllocRegression gates the campaign hot path's per-run heap
// allocations: 200 runs through the one batched path, in claims of
// 64/64/64/8. The checkpoint recycles lane kits and scratch on free-lists,
// which never drop items, so the count is the same under the race
// detector.
func TestCampaignAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns in -short mode")
	}
	s := testSuite(t)
	cp, err := s.Checkpoint("P-BICG", core.None, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Golden(); err != nil {
		t.Fatal(err)
	}
	sel, err := cp.MissSelector()
	if err != nil {
		t.Fatal(err)
	}
	model := fault.StuckAt{BitsPerWord: 2, Blocks: 1}
	const runs = 200
	var rerr error
	allocs := testing.AllocsPerRun(5, func() {
		res, err := cp.Campaign(fault.Campaign{Runs: runs, Seed: 7, Workers: 1}, model, sel)
		if err != nil {
			rerr = err
		} else if res.Runs != runs {
			rerr = fmt.Errorf("campaign ran %d runs, want %d", res.Runs, runs)
		}
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
	perRun := allocs / runs
	t.Logf("campaign allocates %.2f per run, budget %.1f", perRun, maxCampaignAllocsPerRun)
	if perRun > maxCampaignAllocsPerRun {
		t.Error("campaign allocations over budget")
	}
}

// TestFreeListBound: a free-list hands items back last in, first out,
// keeps at most its bound, and stays consistent under concurrent get/put
// (run under -race in CI's package sweep).
func TestFreeListBound(t *testing.T) {
	l := freeList[int]{max: 2}
	for i := 1; i <= 3; i++ {
		l.put(i)
	}
	for _, want := range []int{2, 1} {
		if got, ok := l.get(); !ok || got != want {
			t.Fatalf("get = %d, %v; want %d, true", got, ok, want)
		}
	}
	if got, ok := l.get(); ok {
		t.Fatalf("get on an empty list = %d, true", got)
	}

	l.max = 8
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v, ok := l.get()
				if !ok {
					v = i
				}
				l.put(v)
			}
		}()
	}
	wg.Wait()
	if n := len(l.items); n == 0 || n > l.max {
		t.Fatalf("free-list holds %d items after concurrent use, bound %d", n, l.max)
	}
}
