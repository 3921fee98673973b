package timing

import (
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/simt"
)

// TestOnStoreObservesStoreCommits: the OnStore hook sees every store
// transaction at its L2-port-serialized commit cycle — the fault-domain
// timestamps the transient model's overwrite masking is built on.
func TestOnStoreObservesStoreCommits(t *testing.T) {
	tr := mkTrace(1, []simt.Instr{
		load(1, 0, 100),
		compute(2),
		store(2, 0, 100, 101),
	})
	e, err := New(arch.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	last := map[arch.BlockAddr]int64{}
	e.OnStore = func(blk arch.BlockAddr, at int64) {
		if at <= 0 {
			t.Errorf("store to block %d committed at cycle %d", blk, at)
		}
		if at > last[blk] {
			last[blk] = at
		}
	}
	ks, err := e.RunKernel(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range []arch.BlockAddr{100, 101} {
		at, ok := last[blk]
		if !ok {
			t.Errorf("store to block %d never observed", blk)
			continue
		}
		if at > ks.Cycles {
			t.Errorf("block %d store commit at %d, beyond the %d-cycle replay", blk, at, ks.Cycles)
		}
	}
	if len(last) != 2 {
		t.Errorf("observed stores to %d blocks, want 2", len(last))
	}
}

// TestOnStoreIsObservationOnly: attaching the hook must not perturb the
// replay — identical stats with and without it.
func TestOnStoreIsObservationOnly(t *testing.T) {
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
	e.OnStore = func(arch.BlockAddr, int64) {}
	hooked, err := e.RunKernel(mk())
	if err != nil {
		t.Fatal(err)
	}
	if bare != hooked {
		t.Errorf("OnStore changed replay stats:\nbare:   %+v\nhooked: %+v", bare, hooked)
	}
}
