package simt

import (
	"slices"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

func TestDirtySet(t *testing.T) {
	d := NewDirtySet(4)
	a := arch.BlockAddr(1).Base() + 5*arch.WordBytes
	d.AddWord(a)
	if !d.HasWord(a) || d.HasWord(a+arch.WordBytes) || d.HasWord(a-arch.WordBytes) {
		t.Error("AddWord must mark exactly its word")
	}
	if !d.AnyBlock([]arch.BlockAddr{0, 1}) || d.AnyBlock([]arch.BlockAddr{0, 2, 3}) {
		t.Error("block filter disagrees with the dirty word")
	}
	d.AddBlock(3)
	for w := 0; w < arch.WordsPerBlock; w++ {
		if !d.HasWord(arch.BlockAddr(3).Base() + arch.Addr(w*arch.WordBytes)) {
			t.Fatalf("AddBlock left word %d clean", w)
		}
	}
	d.Reset()
	if d.HasWord(a) || d.HasWord(arch.BlockAddr(3).Base()) || d.AnyBlock([]arch.BlockAddr{0, 1, 2, 3}) {
		t.Error("Reset left dirty state behind")
	}
}

// TestCaptureLoadFootprint pins the read footprint the Driver records per
// warp: the union of the warp's load blocks, vector and broadcast alike,
// each block once, in first-touch order, and nothing carried over from the
// warp before.
func TestCaptureLoadFootprint(t *testing.T) {
	m, in := newTestMem(t, "in", 64) // two blocks
	ld, bc := Site{PC: 1, Name: "ld"}, Site{PC: 2, Name: "bc"}
	k := &Kernel{
		KernelName: "footprint",
		Grid:       arch.Dim3{X: 2},
		Block:      arch.Dim3{X: arch.WarpSize},
		Run: func(w *WarpCtx) {
			idx, v := w.ScratchI32(0), w.ScratchF32(0)
			first := int32(32 * w.CTAIdx.X) // warp 0: block 0; warp 1: block 1
			for lane := 0; lane < w.NumLanes; lane++ {
				idx[lane] = first + int32(lane)
			}
			w.LoadF32(ld, in, idx, v)
			for lane := 0; lane < w.NumLanes; lane++ {
				idx[lane] = 16 + int32(lane) // straddles both blocks
			}
			w.LoadF32(ld, in, idx, v)
			w.LoadF32Broadcast(bc, in, 63-first)
		},
	}
	log := &CaptureLog{}
	if _, err := (&Driver{Mem: m, Capture: log}).Run(k); err != nil {
		t.Fatal(err)
	}
	b0, b1 := in.FirstBlock(), in.FirstBlock()+1
	for w, want := range [][]arch.BlockAddr{{b0, b1}, {b1, b0}} {
		if got := log.Launches[0].Warp(w).Footprint; !slices.Equal(got, want) {
			t.Errorf("warp %d load footprint %v, want %v", w, got, want)
		}
	}
}

// TestLaneReplayWordGranular replays a recorded gather-and-scale warp with
// one input word changed and marked dirty: only that lane may read memory,
// every other lane must be served its recorded value, and the store must
// mark exactly the one output word whose value departs from the recording.
func TestLaneReplayWordGranular(t *testing.T) {
	m := mem.New()
	in, err := m.Alloc("in", 64*4, true)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Alloc("out", 64*4, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		m.WriteF32(in.ElemAddr(i), float32(i))
	}
	ld, st := Site{PC: 1, Name: "ld"}, Site{PC: 2, Name: "st"}
	k := &Kernel{
		KernelName: "scale",
		Grid:       arch.Dim3{X: 1},
		Block:      arch.Dim3{X: arch.WarpSize},
		Run: func(w *WarpCtx) {
			idx, v := w.ScratchI32(0), w.ScratchF32(0)
			for lane := 0; lane < w.NumLanes; lane++ {
				idx[lane] = int32(2 * lane) // two blocks, every other word
			}
			w.LoadF32(ld, in, idx, v)
			for lane := 0; lane < w.NumLanes; lane++ {
				idx[lane] = int32(lane)
				v[lane] *= 2
			}
			w.StoreF32(st, out, idx, v)
		},
	}
	log := &CaptureLog{}
	if _, err := (&Driver{Mem: m.Clone(), Capture: log}).Run(k); err != nil {
		t.Fatal(err)
	}
	wc := log.Launches[0].Warp(0)
	if !slices.Equal(wc.Footprint, wc.Blocks(&wc.Loads[0])) {
		t.Fatalf("load footprint %v, want the one load's blocks %v", wc.Footprint, wc.Blocks(&wc.Loads[0]))
	}

	// Lane 3 reads in[6]: give it a new value and mark it dirty. Also
	// change in[8], lane 4's word, without marking it: only a clean lane
	// wrongly read from memory could observe that.
	f := m.Clone()
	f.WriteF32(in.ElemAddr(6), 100)
	f.WriteF32(in.ElemAddr(8), -1)
	dirty := NewDirtySet(f.TotalBlocks())
	dirty.AddWord(in.ElemAddr(6))
	rp := &LaneReplay{Dirty: dirty, Bufs: f.Buffers()}
	if !rp.ReadsDirty(&wc) {
		t.Fatal("gate missed the warp's dirty word")
	}
	if err := (&Driver{Mem: f}).RunWarp(k, 0, &wc, rp); err != nil {
		t.Fatal(err)
	}
	if rp.desync {
		t.Fatal("in-sync warp desynced")
	}
	for lane := 0; lane < arch.WarpSize; lane++ {
		want := float32(4 * lane)
		if lane == 3 {
			want = 200
		}
		if got := f.ReadF32(out.ElemAddr(lane)); got != want {
			t.Errorf("out[%d] = %v, want %v", lane, got, want)
		}
		if got, want := dirty.HasWord(out.ElemAddr(lane)), lane == 3; got != want {
			t.Errorf("out[%d] dirty = %v, want %v", lane, got, want)
		}
	}

	// A dirty word no recorded load reads leaves the warp reproducible.
	clean := NewDirtySet(f.TotalBlocks())
	clean.AddWord(in.ElemAddr(7))
	if (&LaneReplay{Dirty: clean, Bufs: f.Buffers()}).ReadsDirty(&wc) {
		t.Error("gate executes a warp that reads only clean words of a dirty block")
	}
}

// recordOneWarp records one full warp of k running on a clone of m.
func recordOneWarp(t *testing.T, m *mem.Memory, k *Kernel) *Warp {
	t.Helper()
	log := &CaptureLog{}
	if _, err := (&Driver{Mem: m.Clone(), Capture: log}).Run(k); err != nil {
		t.Fatal(err)
	}
	wc := log.Launches[0].Warp(0)
	return &wc
}

// TestLaneReplayResyncsDesyncedWarp scatters through an index object: a
// dirty index word sends one lane's store elsewhere, which desyncs the
// warp at the store. Every word the warp stores must end dirty — the one
// the recording does not store included — and so must the word only the
// recording stores, which the lane left at its old value.
func TestLaneReplayResyncsDesyncedWarp(t *testing.T) {
	m := mem.New()
	ix, err := m.Alloc("ix", arch.WarpSize*4, true)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Alloc("out", 64*4, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < arch.WarpSize; i++ {
		m.WriteI32(ix.ElemAddr(i), int32(i))
	}
	ld, st := Site{PC: 1, Name: "ld"}, Site{PC: 2, Name: "st"}
	k := &Kernel{
		KernelName: "scatter",
		Grid:       arch.Dim3{X: 1},
		Block:      arch.Dim3{X: arch.WarpSize},
		Run: func(w *WarpCtx) {
			idx, dst, v := w.ScratchI32(0), w.ScratchI32(1), w.ScratchF32(0)
			for lane := 0; lane < w.NumLanes; lane++ {
				idx[lane] = int32(lane)
				v[lane] = float32(lane + 1)
			}
			w.LoadI32(ld, ix, idx, dst)
			w.StoreF32(st, out, dst, v)
		},
	}
	wc := recordOneWarp(t, m, k)

	f := m.Clone()
	f.WriteI32(ix.ElemAddr(3), 40) // lane 3 stores out[40] instead of out[3]
	dirty := NewDirtySet(f.TotalBlocks())
	dirty.AddWord(ix.ElemAddr(3))
	rp := &LaneReplay{Dirty: dirty, Bufs: f.Buffers()}
	if err := (&Driver{Mem: f}).RunWarp(k, 0, wc, rp); err != nil {
		t.Fatal(err)
	}
	if !rp.desync {
		t.Fatal("a store to another word did not desync the warp")
	}
	for i := 0; i < out.Len4(); i++ {
		if got, want := dirty.HasWord(out.ElemAddr(i)), i < arch.WarpSize || i == 40; got != want {
			t.Errorf("out[%d] dirty = %v, want %v", i, got, want)
		}
	}
	if got := f.ReadF32(out.ElemAddr(3)); got != 0 {
		t.Errorf("out[3] = %v, want the lane's unwritten 0", got)
	}
}

// TestLaneReplayResyncsShortWarp: a warp whose store hangs on a dirty flag
// skips it, so it executes in sync yet commits fewer stores than recorded.
// The words only the recording stores hold their pre-warp values in the
// lane, so they must end dirty, and the warp counts as desynced.
func TestLaneReplayResyncsShortWarp(t *testing.T) {
	m, flag := newTestMem(t, "flag", 1)
	out, err := m.Alloc("out", arch.WarpSize*4, false)
	if err != nil {
		t.Fatal(err)
	}
	m.WriteI32(flag.ElemAddr(0), 1)
	ld, st := Site{PC: 1, Name: "ld"}, Site{PC: 2, Name: "st"}
	k := &Kernel{
		KernelName: "guarded",
		Grid:       arch.Dim3{X: 1},
		Block:      arch.Dim3{X: arch.WarpSize},
		Run: func(w *WarpCtx) {
			if w.LoadI32Broadcast(ld, flag, 0) == 0 {
				return
			}
			idx, v := w.ScratchI32(0), w.ScratchF32(0)
			for lane := 0; lane < w.NumLanes; lane++ {
				idx[lane] = int32(lane)
				v[lane] = 1
			}
			w.StoreF32(st, out, idx, v)
		},
	}
	wc := recordOneWarp(t, m, k)

	f := m.Clone()
	f.WriteI32(flag.ElemAddr(0), 0)
	dirty := NewDirtySet(f.TotalBlocks())
	dirty.AddWord(flag.ElemAddr(0))
	rp := &LaneReplay{Dirty: dirty, Bufs: f.Buffers()}
	if err := (&Driver{Mem: f}).RunWarp(k, 0, wc, rp); err != nil {
		t.Fatal(err)
	}
	if !rp.desync {
		t.Error("a warp that skipped its recorded store is not marked desynced")
	}
	for i := 0; i < arch.WarpSize; i++ {
		if !dirty.HasWord(out.ElemAddr(i)) {
			t.Fatalf("out[%d], stored only by the recording, is clean", i)
		}
	}
}

// TestRunWarpThreadIdxAcrossShapes interleaves RunWarp calls over kernels
// of different block shapes on one driver: the cached ThreadIdx table must
// follow every change of warp and shape.
func TestRunWarpThreadIdxAcrossShapes(t *testing.T) {
	m, _ := newTestMem(t, "A", 64)
	d := &Driver{Mem: m}
	check := func(block arch.Dim3) *Kernel {
		return &Kernel{
			KernelName: "tidx",
			Grid:       arch.Dim3{X: 1},
			Block:      block,
			Run: func(w *WarpCtx) {
				x, y := block.X, max(block.Y, 1)
				for lane := 0; lane < w.NumLanes; lane++ {
					linear := w.WarpInCTA*arch.WarpSize + lane
					want := arch.Dim3{X: linear % x, Y: linear / x % y, Z: linear / (x * y)}
					if got := w.ThreadIdx(lane); got != want {
						t.Errorf("block %v warp %d lane %d: ThreadIdx = %v, want %v", block, w.WarpInCTA, lane, got, want)
					}
				}
			},
		}
	}
	k13, k5 := check(arch.Dim3{X: 13, Y: 13}), check(arch.Dim3{X: 5, Y: 3, Z: 4})
	rp := &LaneReplay{Dirty: NewDirtySet(m.TotalBlocks()), Bufs: m.Buffers()}
	for _, step := range []struct {
		k    *Kernel
		warp int
	}{{k13, 0}, {k13, 2}, {k5, 0}, {k13, 2}, {k5, 1}, {k5, 1}, {k13, 5}} {
		l := &Launch{Warps: make(Arena[WarpRec], step.k.TotalWarps())}
		wc := l.Warp(step.warp)
		if err := d.RunWarp(step.k, step.warp, &wc, rp); err != nil {
			t.Fatal(err)
		}
	}
}
