package simt

import (
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
	wc := log.Kernels[0].Warps[0]
	wc.LoadBlocks = wc.Loads[0].Blocks // the footprint union the capture owner builds

	// Lane 3 reads in[6]: give it a new value and mark it dirty. Also
	// change in[8], lane 4's word, without marking it: only a clean lane
	// wrongly read from memory could observe that.
	f := m.Clone()
	f.WriteF32(in.ElemAddr(6), 100)
	f.WriteF32(in.ElemAddr(8), -1)
	dirty := NewDirtySet(f.TotalBlocks())
	dirty.AddWord(in.ElemAddr(6))
	rp := &LaneReplay{Dirty: dirty, Bufs: f.Buffers()}
	if !rp.ReadsDirty(wc) {
		t.Fatal("gate missed the warp's dirty word")
	}
	rp.Reset(wc)
	if err := (&Driver{Mem: f}).RunWarp(k, wc, rp); err != nil {
		t.Fatal(err)
	}
	if rp.Desync {
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
	if (&LaneReplay{Dirty: clean, Bufs: f.Buffers()}).ReadsDirty(wc) {
		t.Error("gate executes a warp that reads only clean words of a dirty block")
	}
	// A replica word counts as read with its primary. Let out stand in for
	// in's replica, its blocks expanded into the load footprint as the
	// capture owner does for protected objects.
	rec := &wc.Loads[0]
	n := len(rec.Blocks)
	for _, b := range rec.Blocks[:n:n] {
		rec.Blocks = append(rec.Blocks, b+out.FirstBlock()-in.FirstBlock())
	}
	wc.LoadBlocks = rec.Blocks
	rep := NewDirtySet(f.TotalBlocks())
	rep.AddWord(out.ElemAddr(2)) // the replica of in[2], read by lane 1
	replicas := make([][]arch.Addr, len(f.Buffers()))
	replicas[in.ID] = []arch.Addr{out.Base - in.Base}
	if !(&LaneReplay{Dirty: rep, Bufs: f.Buffers(), Replicas: replicas}).ReadsDirty(wc) {
		t.Error("gate ignores a dirty replica word")
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
	for _, step := range []struct {
		k    *Kernel
		warp int
	}{{k13, 0}, {k13, 2}, {k5, 0}, {k13, 2}, {k5, 1}, {k5, 1}, {k13, 5}} {
		lanes := min(arch.WarpSize, step.k.Block.Count()-step.warp*arch.WarpSize)
		wc := &WarpCapture{WarpInCTA: step.warp, GlobalWarpID: step.warp, NumLanes: lanes}
		if err := d.RunWarp(step.k, wc, nil); err != nil {
			t.Fatal(err)
		}
	}
}
