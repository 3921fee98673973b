package timing

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/simt"
)

// TestDeterministicCycles: identical traces and configuration must simulate
// to identical cycle counts and statistics — campaigns and experiments rely
// on reproducibility.
func TestDeterministicCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var warps [][]simt.Instr
	for w := 0; w < 16; w++ {
		var is []simt.Instr
		for i := 0; i < 30; i++ {
			is = append(is,
				load(1, 0, arch.BlockAddr(rng.Intn(2048)), arch.BlockAddr(rng.Intn(2048))),
				compute(int32(1+rng.Intn(5))),
			)
		}
		is = append(is, store(2, 1, arch.BlockAddr(8192+w)))
		warps = append(warps, is)
	}
	tr := mkTrace(4, warps...)

	run := func() KernelStats {
		e, err := New(arch.Default(), testPlan{copies: 2, lazy: true, offset: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		ks, err := e.RunKernel(tr)
		if err != nil {
			t.Fatal(err)
		}
		return ks
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles {
		t.Errorf("cycles differ across identical runs: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.L1 != b.L1 || a.L2 != b.L2 || a.DRAM != b.DRAM {
		t.Error("statistics differ across identical runs")
	}
}

// TestChannelDistribution: consecutive blocks must spread across all L2
// channels/DRAM controllers.
func TestChannelDistribution(t *testing.T) {
	cfg := arch.Default()
	var warps [][]simt.Instr
	for w := 0; w < 6; w++ {
		var is []simt.Instr
		for i := 0; i < 24; i++ {
			is = append(is, load(1, 0, arch.BlockAddr(w*24+i)), compute(1))
		}
		warps = append(warps, is)
	}
	tr := mkTrace(1, warps...)
	e, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := e.RunKernel(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ks.DRAM.Served == 0 {
		t.Fatal("no DRAM traffic")
	}
	// Every controller must have served roughly its share.
	for ch, c := range e.chans {
		if c.dram.Stats.Served == 0 {
			t.Errorf("channel %d served nothing; interleaving broken", ch)
		}
	}
}

// TestBlockLogCountsMisses: the log's miss histogram must cover exactly
// the missed blocks including replicas, and an engine without a log must
// record nothing.
func TestBlockLogCountsMisses(t *testing.T) {
	// Two loads of the same block: both issue before the fill returns, so
	// both count as misses (the second merges in the MSHR but still
	// represents an L2/DRAM-exposed access).
	tr := mkTrace(1, []simt.Instr{load(1, 0, 100), load(1, 0, 100), compute(1)})
	plan := testPlan{copies: 2, lazy: true, offset: 1000}

	e, err := New(arch.Default(), plan)
	if err != nil {
		t.Fatal(err)
	}
	e.Blocks = NewBlockLog(2048)
	if _, err := e.RunKernel(tr); err != nil {
		t.Fatal(err)
	}
	blocks, counts := e.Blocks.Misses()
	if !slices.Equal(blocks, []arch.BlockAddr{100, 1100}) || !slices.Equal(counts, []uint64{2, 2}) {
		t.Errorf("histogram = %v %v, want two misses each for 100 and its replica 1100", blocks, counts)
	}
	if stored, _ := e.Blocks.Stores(); len(stored) != 0 {
		t.Errorf("store timeline = %v for a trace without stores", stored)
	}

	off, err := New(arch.Default(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := off.RunKernel(tr); err != nil {
		t.Fatal(err)
	}
	if off.Blocks != nil {
		t.Error("an engine without a log attached one")
	}
}

// TestCompareBufferSizeMonotonic: a smaller pending-compare buffer can only
// slow protected runs down.
func TestCompareBufferSizeMonotonic(t *testing.T) {
	var warps [][]simt.Instr
	for w := 0; w < 32; w++ {
		warps = append(warps, []simt.Instr{load(1, 0, arch.BlockAddr(w)), compute(5)})
	}
	tr := mkTrace(32, warps...)
	cycles := func(size int) int64 {
		e, err := New(arch.Default(), testPlan{copies: 2, lazy: true, offset: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		e.CompareBufferSize = size
		ks, err := e.RunKernel(tr)
		if err != nil {
			t.Fatal(err)
		}
		return ks.Cycles
	}
	small, big := cycles(1), cycles(64)
	if small < big {
		t.Errorf("1-entry buffer (%d cycles) outperformed 64-entry (%d)", small, big)
	}
}

// TestWarpsObserveProgramOrder: a warp's own instructions execute in program
// order — the store's data depends on the loads (scoreboard), so the final
// memory state reflects completed loads.
func TestWarpsObserveProgramOrder(t *testing.T) {
	// Interleave many warps; each issues load→compute→store. If the
	// scoreboard were broken the engine would deadlock or mis-count
	// instructions.
	var warps [][]simt.Instr
	for w := 0; w < 24; w++ {
		warps = append(warps, []simt.Instr{
			load(1, 0, arch.BlockAddr(w*3)),
			compute(2),
			load(1, 0, arch.BlockAddr(w*3+1)),
			compute(2),
			store(2, 1, arch.BlockAddr(4096+w)),
		})
	}
	tr := mkTrace(8, warps...)
	ks := run(t, nil, tr)
	if ks.Instructions != 24*5 {
		t.Errorf("instructions = %d, want %d", ks.Instructions, 24*5)
	}
	if ks.L1.Writes != 24 {
		t.Errorf("stores = %d, want 24", ks.L1.Writes)
	}
}

// TestGTOPrefersCurrentWarp: under GTO the same warp keeps issuing until it
// stalls, which shows up as fewer warp switches (proxy: identical totals,
// different cycle profile vs LRR is exercised elsewhere; here we just pin
// scheduler selection behaviour at the unit level).
func TestGTOPrefersCurrentWarp(t *testing.T) {
	e, err := New(arch.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := e.sms[0]
	w0 := &warpState{trace: []simt.Instr{compute(1), compute(1)}, age: 0}
	w1 := &warpState{trace: []simt.Instr{compute(1), compute(1)}, age: 1}
	s.warps = []*warpState{w0, w1}
	first := s.pickWarp(0)
	if first != w0 {
		t.Fatalf("GTO picked warp age %d first, want oldest", first.age)
	}
	// Same warp still ready: greedy keeps it.
	if got := s.pickWarp(0); got != w0 {
		t.Error("GTO switched warps while current warp was ready")
	}
	// Current warp becomes not-ready: falls back to the oldest ready warp.
	w0.readyAt = 100
	if got := s.pickWarp(0); got != w1 {
		t.Error("GTO did not fall back to next-oldest ready warp")
	}
}
