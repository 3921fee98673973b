package simt

import (
	"reflect"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

func TestStoreTransactionsObserved(t *testing.T) {
	m := mem.New()
	b, err := m.Alloc("out", 256, false)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int32, arch.WarpSize)
	src := make([]float32, arch.WarpSize)
	txs := transactions(runOneWarp(t, m, func(w *WarpCtx) {
		for lane := 0; lane < w.NumLanes; lane++ {
			idx[lane] = int32(lane)
		}
		w.StoreF32(Site{PC: 9}, b, idx, src)
	}))
	if len(txs) != 1 {
		t.Fatalf("store transactions = %d, want 1 coalesced", len(txs))
	}
	if !txs[0].Write {
		t.Error("store transaction not marked as write")
	}
	if txs[0].PC != 9 {
		t.Errorf("store PC = %d, want 9", txs[0].PC)
	}
}

// TestTraceDeterminism: identical kernels trace identically — the timing
// experiments replay one captured trace for many protection plans.
func TestTraceDeterminism(t *testing.T) {
	build := func() *KernelTrace {
		m, b := newTestMem(t, "A", 1024)
		d := &Driver{Mem: m, Tracing: true}
		idx := make([]int32, arch.WarpSize)
		dst := make([]float32, arch.WarpSize)
		tr, err := d.Run(&Kernel{
			KernelName: "det",
			Grid:       arch.Dim3{X: 4},
			Block:      arch.Dim3{X: 64},
			Run: func(w *WarpCtx) {
				for i := 0; i < 8; i++ {
					for lane := 0; lane < w.NumLanes; lane++ {
						idx[lane] = int32((w.LinearThreadID(lane)*7 + i*13) % 1024)
					}
					w.LoadF32(Site{PC: 1}, b, idx, dst)
					w.Compute(2)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.Warps, b.Warps) {
		t.Fatal("identical kernels produced different traces")
	}
}

func TestPermissiveOOBLoads(t *testing.T) {
	m := mem.New()
	b, err := m.Alloc("small", 128, true)
	if err != nil {
		t.Fatal(err)
	}
	other, err := m.Alloc("other", 128, false)
	if err != nil {
		t.Fatal(err)
	}
	m.WriteF32(other.ElemAddr(0), 42)

	d := &Driver{Mem: m, PermissiveOOB: true}
	idx := make([]int32, arch.WarpSize)
	dst := make([]float32, arch.WarpSize)
	var broadcast float32
	_, err = d.Run(&Kernel{
		KernelName: "oob",
		Grid:       arch.Dim3{X: 1},
		Block:      arch.Dim3{X: 32},
		Run: func(w *WarpCtx) {
			for lane := range idx {
				idx[lane] = InactiveLane
			}
			idx[0] = 32 // "small" has 32 floats; index 32 lands in "other"[0]
			idx[1] = -1000
			w.LoadF32(Site{PC: 1}, b, idx, dst)
			broadcast = w.LoadF32Broadcast(Site{PC: 2}, b, 1<<20)
		},
	})
	if err != nil {
		t.Fatalf("permissive OOB run failed: %v", err)
	}
	if dst[0] != 42 {
		t.Errorf("wrapped OOB read = %v, want the neighbouring buffer's 42", dst[0])
	}
	_ = broadcast // deterministic wrapped value; the run completing is the contract

	// Negative and far-out indices wrap deterministically: re-running gives
	// identical values.
	first := dst[1]
	d2 := &Driver{Mem: m.Clone(), PermissiveOOB: true}
	_, err = d2.Run(&Kernel{
		KernelName: "oob2",
		Grid:       arch.Dim3{X: 1},
		Block:      arch.Dim3{X: 32},
		Run: func(w *WarpCtx) {
			for lane := range idx {
				idx[lane] = InactiveLane
			}
			idx[1] = -1000
			w.LoadF32(Site{PC: 1}, b, idx, dst)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dst[1] != first {
		t.Error("wrapped OOB reads not deterministic")
	}
}

func TestStrictOOBStillFails(t *testing.T) {
	m, b := newTestMem(t, "A", 16)
	d := &Driver{Mem: m} // strict
	idx := make([]int32, arch.WarpSize)
	dst := make([]float32, arch.WarpSize)
	_, err := d.Run(&Kernel{
		KernelName: "strict",
		Grid:       arch.Dim3{X: 1},
		Block:      arch.Dim3{X: 32},
		Run: func(w *WarpCtx) {
			idx[0] = 9999
			for l := 1; l < len(idx); l++ {
				idx[l] = InactiveLane
			}
			w.LoadF32(Site{PC: 1}, b, idx, dst)
		},
	})
	if err == nil {
		t.Fatal("strict mode accepted an out-of-bounds load")
	}
}

func TestScratchSlotsAreDistinct(t *testing.T) {
	m, _ := newTestMem(t, "A", 16)
	d := &Driver{Mem: m}
	_, err := d.Run(&Kernel{
		KernelName: "scratch",
		Grid:       arch.Dim3{X: 1},
		Block:      arch.Dim3{X: 32},
		Run: func(w *WarpCtx) {
			a := w.ScratchF32(0)
			b := w.ScratchF32(1)
			a[0], b[0] = 1, 2
			if a[0] != 1 || b[0] != 2 {
				t.Error("scratch slots alias")
			}
			ia := w.ScratchI32(2)
			ib := w.ScratchI32(3)
			ia[5], ib[5] = 7, 9
			if ia[5] != 7 || ib[5] != 9 {
				t.Error("int scratch slots alias")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}
