package timing

import (
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
	e.Blocks = NewBlockLog()
	ks, err := e.RunKernel(tr)
	if err != nil {
		t.Fatal(err)
	}
	last := e.Blocks.LastStore
	for _, blk := range []arch.BlockAddr{100, 101} {
		at, ok := last[blk]
		if !ok {
			t.Errorf("store to block %d never observed", blk)
			continue
		}
		if at <= 0 || at > ks.Cycles {
			t.Errorf("block %d store commit at %d, outside the %d-cycle replay", blk, at, ks.Cycles)
		}
	}
	if len(last) != 2 {
		t.Errorf("observed stores to %d blocks, want 2", len(last))
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
	e.Blocks = NewBlockLog()
	logged, err := e.RunKernel(mk())
	if err != nil {
		t.Fatal(err)
	}
	if bare != logged {
		t.Errorf("BlockLog changed replay stats:\nbare:   %+v\nlogged: %+v", bare, logged)
	}
	if len(e.Blocks.Misses) == 0 || len(e.Blocks.LastStore) == 0 {
		t.Errorf("log recorded %d missed and %d stored blocks, want both non-zero",
			len(e.Blocks.Misses), len(e.Blocks.LastStore))
	}
}
