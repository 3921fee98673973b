package timing

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/simt"
)

// TestBlockLogObservesStoreCommits: an attached BlockLog holds the last
// L2-port-serialized commit cycle of every stored-to block — the
// fault-domain timestamps the transient model's overwrite masking is
// built on.
func TestBlockLogObservesStoreCommits(t *testing.T) {
	tr := mkTrace(1, []simt.Instr{
		load(1, 0, 100),
		compute(2),
		store(2, 0, 100, 101),
	})
	e, err := New(arch.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Blocks = NewBlockLog(128)
	ks, err := e.RunKernel(tr)
	if err != nil {
		t.Fatal(err)
	}
	blocks, cycles := e.Blocks.Stores()
	if !slices.Equal(blocks, []arch.BlockAddr{100, 101}) {
		t.Fatalf("observed stores to blocks %v, want [100 101]", blocks)
	}
	for i, at := range cycles {
		if at <= 0 || at > ks.Cycles {
			t.Errorf("block %d store commit at %d, outside the %d-cycle replay", blocks[i], at, ks.Cycles)
		}
	}
}

// TestBlockLogIsObservationOnly: attaching a log must not perturb the
// replay — identical stats with and without it.
func TestBlockLogIsObservationOnly(t *testing.T) {
	mk := func() *simt.KernelTrace {
		return mkTrace(1,
			[]simt.Instr{load(1, 0, 100, 101), compute(3), store(2, 0, 100)},
			[]simt.Instr{load(1, 0, 102), compute(1), store(2, 0, 102)},
		)
	}
	bare := run(t, nil, mk())

	e, err := New(arch.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Blocks = NewBlockLog(128)
	logged, err := e.RunKernel(mk())
	if err != nil {
		t.Fatal(err)
	}
	if bare != logged {
		t.Errorf("BlockLog changed replay stats:\nbare:   %+v\nlogged: %+v", bare, logged)
	}
	missed, _ := e.Blocks.Misses()
	stored, _ := e.Blocks.Stores()
	if len(missed) == 0 || len(stored) == 0 {
		t.Errorf("log recorded %d missed and %d stored blocks, want both non-zero", len(missed), len(stored))
	}
}

// TestBlockLogDenseMatchesMaps: the dense log lists exactly what per-block
// maps would hold — blocks ascending, zero counts and cycle-0 commits left
// out.
func TestBlockLogDenseMatchesMaps(t *testing.T) {
	const size = 1 << 10
	rng := rand.New(rand.NewSource(3))
	l := NewBlockLog(size)
	misses := map[arch.BlockAddr]uint64{}
	last := map[arch.BlockAddr]int64{}
	for i := 0; i < 2000; i++ {
		b := arch.BlockAddr(rng.Intn(size))
		if rng.Intn(2) == 0 {
			l.miss(b)
			misses[b]++
			continue
		}
		at := int64(rng.Intn(50))
		l.store(b, at)
		if at > last[b] {
			last[b] = at
		}
	}
	blocks, counts := l.Misses()
	checkDense(t, "misses", blocks, counts, misses)
	blocks, cycles := l.Stores()
	checkDense(t, "stores", blocks, cycles, last)
}

// checkDense compares an accessor's ascending lists with a reference map.
func checkDense[T uint64 | int64](t *testing.T, what string, blocks []arch.BlockAddr, vals []T, ref map[arch.BlockAddr]T) {
	t.Helper()
	want := make([]arch.BlockAddr, 0, len(ref))
	for b, v := range ref {
		if v != 0 {
			want = append(want, b)
		}
	}
	slices.Sort(want)
	if !slices.Equal(blocks, want) || len(vals) != len(blocks) {
		t.Fatalf("%s: blocks %v (%d values), want %v", what, blocks, len(vals), want)
	}
	for i, b := range blocks {
		if vals[i] != ref[b] {
			t.Fatalf("%s: block %d holds %d, want %d", what, b, vals[i], ref[b])
		}
	}
}
