package simt

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// transaction is one coalesced block access of a traced memory
// instruction.
type transaction struct {
	Block arch.BlockAddr
	PC    uint16
	Write bool
}

// transactions flattens a trace's memory instructions into their coalesced
// block accesses, in issue order.
func transactions(tr *KernelTrace) []transaction {
	var out []transaction
	for _, w := range tr.Warps {
		for _, in := range w {
			for _, b := range in.Blocks {
				out = append(out, transaction{Block: b, PC: in.PC, Write: in.Kind == InstrStore})
			}
		}
	}
	return out
}

func newTestMem(t *testing.T, name string, floats int) (*mem.Memory, *mem.Buffer) {
	t.Helper()
	m := mem.New()
	b, err := m.Alloc(name, floats*4, true)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float32, floats)
	for i := range vals {
		vals[i] = float32(i)
	}
	if err := m.WriteF32Slice(b, vals); err != nil {
		t.Fatal(err)
	}
	return m, b
}

// runOneWarp executes a single full warp with the given program and
// returns its trace.
func runOneWarp(t *testing.T, m *mem.Memory, run func(w *WarpCtx)) *KernelTrace {
	t.Helper()
	d := &Driver{Mem: m, Tracing: true}
	tr, err := d.Run(&Kernel{
		KernelName: "test",
		Grid:       arch.Dim3{X: 1},
		Block:      arch.Dim3{X: arch.WarpSize},
		Run:        run,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return tr
}

func TestCoalescingConsecutiveLanes(t *testing.T) {
	m, b := newTestMem(t, "A", 256)
	idx := make([]int32, arch.WarpSize)
	dst := make([]float32, arch.WarpSize)
	ld := Site{PC: 1, Name: "ld.A"}
	txs := transactions(runOneWarp(t, m, func(w *WarpCtx) {
		// Lanes read consecutive floats 0..31 → one aligned 128 B block.
		for lane := 0; lane < w.NumLanes; lane++ {
			idx[lane] = int32(lane)
		}
		w.LoadF32(ld, b, idx, dst)
	}))
	if len(txs) != 1 {
		t.Fatalf("coalesced consecutive access produced %d transactions, want 1", len(txs))
	}
	for lane := 0; lane < arch.WarpSize; lane++ {
		if dst[lane] != float32(lane) {
			t.Fatalf("dst[%d] = %v, want %v", lane, dst[lane], float32(lane))
		}
	}
}

func TestCoalescingStraddlingBlocks(t *testing.T) {
	m, b := newTestMem(t, "A", 256)
	idx := make([]int32, arch.WarpSize)
	dst := make([]float32, arch.WarpSize)
	txs := transactions(runOneWarp(t, m, func(w *WarpCtx) {
		// Offset by 16 floats: lanes straddle two 128 B blocks.
		for lane := 0; lane < w.NumLanes; lane++ {
			idx[lane] = int32(lane + 16)
		}
		w.LoadF32(Site{PC: 1}, b, idx, dst)
	}))
	if len(txs) != 2 {
		t.Fatalf("straddling access produced %d transactions, want 2", len(txs))
	}
}

func TestCoalescingStridedUncoalesced(t *testing.T) {
	m, b := newTestMem(t, "A", 32*64)
	idx := make([]int32, arch.WarpSize)
	dst := make([]float32, arch.WarpSize)
	txs := transactions(runOneWarp(t, m, func(w *WarpCtx) {
		// Row-major stride 64 floats: every lane hits a distinct block —
		// the P-GESUMMV / P-BICG kernel2 pattern.
		for lane := 0; lane < w.NumLanes; lane++ {
			idx[lane] = int32(lane * 64)
		}
		w.LoadF32(Site{PC: 1}, b, idx, dst)
	}))
	if len(txs) != arch.WarpSize {
		t.Fatalf("strided access produced %d transactions, want %d", len(txs), arch.WarpSize)
	}
}

func TestBroadcastSingleTransaction(t *testing.T) {
	m, b := newTestMem(t, "r", 64)
	txs := transactions(runOneWarp(t, m, func(w *WarpCtx) {
		if got := w.LoadF32Broadcast(Site{PC: 2}, b, 7); got != 7 {
			t.Errorf("broadcast = %v, want 7", got)
		}
	}))
	if len(txs) != 1 {
		t.Fatalf("broadcast produced %d transactions, want 1", len(txs))
	}
	if txs[0].Block != b.ElemAddr(7).Block() {
		t.Error("broadcast transaction targets wrong block")
	}
}

func TestInactiveLanesPredicatedOff(t *testing.T) {
	m, b := newTestMem(t, "A", 64)
	idx := make([]int32, arch.WarpSize)
	dst := make([]float32, arch.WarpSize)
	txs := transactions(runOneWarp(t, m, func(w *WarpCtx) {
		for lane := 0; lane < w.NumLanes; lane++ {
			idx[lane] = InactiveLane
		}
		idx[3] = 5
		w.LoadF32(Site{PC: 1}, b, idx, dst)
	}))
	if len(txs) != 1 {
		t.Fatalf("single active lane produced %d transactions, want 1", len(txs))
	}
	if dst[3] != 5 {
		t.Errorf("dst[3] = %v, want 5", dst[3])
	}
}

func TestAllLanesInactiveNoTransaction(t *testing.T) {
	m, b := newTestMem(t, "A", 64)
	idx := make([]int32, arch.WarpSize)
	dst := make([]float32, arch.WarpSize)
	txs := transactions(runOneWarp(t, m, func(w *WarpCtx) {
		for lane := range idx {
			idx[lane] = InactiveLane
		}
		w.LoadF32(Site{PC: 1}, b, idx, dst)
	}))
	if len(txs) != 0 {
		t.Fatalf("fully predicated load produced %d transactions, want 0", len(txs))
	}
}

func TestStoreAndReadBack(t *testing.T) {
	m := mem.New()
	b, err := m.Alloc("out", 32*4, false)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int32, arch.WarpSize)
	src := make([]float32, arch.WarpSize)
	runOneWarp(t, m, func(w *WarpCtx) {
		for lane := 0; lane < w.NumLanes; lane++ {
			idx[lane] = int32(lane)
			src[lane] = float32(lane) * 2
		}
		w.StoreF32(Site{PC: 3}, b, idx, src)
	})
	for i := 0; i < 32; i++ {
		if got := m.ReadF32(b.ElemAddr(i)); got != float32(i)*2 {
			t.Fatalf("out[%d] = %v, want %v", i, got, float32(i)*2)
		}
	}
}

func TestStoreToReadOnlyFails(t *testing.T) {
	m, b := newTestMem(t, "ro", 64) // read-only
	d := &Driver{Mem: m}
	idx := make([]int32, arch.WarpSize)
	src := make([]float32, arch.WarpSize)
	_, err := d.Run(&Kernel{
		KernelName: "bad",
		Grid:       arch.Dim3{X: 1},
		Block:      arch.Dim3{X: 32},
		Run: func(w *WarpCtx) {
			w.StoreF32(Site{PC: 1}, b, idx, src)
		},
	})
	if err == nil {
		t.Fatal("store to read-only buffer succeeded")
	}
}

func TestOutOfBoundsLoadFails(t *testing.T) {
	m, b := newTestMem(t, "A", 16)
	d := &Driver{Mem: m}
	idx := make([]int32, arch.WarpSize)
	dst := make([]float32, arch.WarpSize)
	_, err := d.Run(&Kernel{
		KernelName: "oob",
		Grid:       arch.Dim3{X: 1},
		Block:      arch.Dim3{X: 32},
		Run: func(w *WarpCtx) {
			idx[0] = 16 // one past the end
			w.LoadF32(Site{PC: 1}, b, idx, dst)
		},
	})
	if err == nil {
		t.Fatal("out-of-bounds load succeeded")
	}
}

type failingReader struct{ err error }

func (r failingReader) ReadLaneWord(*mem.Buffer, arch.Addr) (uint32, error) { return 0, r.err }

func TestReaderErrorTerminatesLaunch(t *testing.T) {
	m, b := newTestMem(t, "A", 64)
	want := errors.New("fault detected")
	d := &Driver{Mem: m, Reader: failingReader{want}}
	idx := make([]int32, arch.WarpSize)
	dst := make([]float32, arch.WarpSize)
	_, err := d.Run(&Kernel{
		KernelName: "term",
		Grid:       arch.Dim3{X: 4},
		Block:      arch.Dim3{X: 32},
		Run: func(w *WarpCtx) {
			idx[0] = 0
			for l := 1; l < len(idx); l++ {
				idx[l] = InactiveLane
			}
			w.LoadF32(Site{PC: 1}, b, idx, dst)
		},
	})
	if !errors.Is(err, want) {
		t.Fatalf("Run error = %v, want wrapped %v", err, want)
	}
}

func TestTraceCapture(t *testing.T) {
	m, b := newTestMem(t, "A", 256)
	idx := make([]int32, arch.WarpSize)
	dst := make([]float32, arch.WarpSize)
	tr := runOneWarp(t, m, func(w *WarpCtx) {
		for lane := 0; lane < w.NumLanes; lane++ {
			idx[lane] = int32(lane)
		}
		w.LoadF32(Site{PC: 1}, b, idx, dst)
		w.Compute(2)
		w.Compute(3) // must merge with the previous compute
		w.LoadF32Broadcast(Site{PC: 2}, b, 0)
	})
	if tr == nil {
		t.Fatal("no trace captured")
	}
	w0 := tr.Warps[0]
	if len(w0) != 3 {
		t.Fatalf("trace has %d instrs, want 3 (load, merged compute, load): %+v", len(w0), w0)
	}
	if w0[0].Kind != InstrLoad || len(w0[0].Blocks) != 1 {
		t.Errorf("instr 0 = %+v, want 1-block load", w0[0])
	}
	if w0[1].Kind != InstrCompute || w0[1].Ops != 5 {
		t.Errorf("instr 1 = %+v, want merged compute of 5 ops", w0[1])
	}
	if got, want := tr.Instructions(), 3; got != want {
		t.Errorf("Instructions() = %d, want %d", got, want)
	}
	if got, want := tr.Transactions(), 2; got != want {
		t.Errorf("Transactions() = %d, want %d", got, want)
	}
}

func TestDriverGeometry(t *testing.T) {
	m, _ := newTestMem(t, "A", 64)
	d := &Driver{Mem: m}
	type seen struct {
		cta   arch.Dim3
		warp  int
		lanes int
	}
	var warps []seen
	_, err := d.Run(&Kernel{
		KernelName: "geom",
		Grid:       arch.Dim3{X: 2, Y: 2},
		Block:      arch.Dim3{X: 48}, // 1.5 warps → warp 1 has 16 lanes
		Run: func(w *WarpCtx) {
			warps = append(warps, seen{w.CTAIdx, w.GlobalWarpID, w.NumLanes})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(warps) != 8 {
		t.Fatalf("executed %d warps, want 8", len(warps))
	}
	for i, s := range warps {
		if s.warp != i {
			t.Errorf("warp %d has GlobalWarpID %d", i, s.warp)
		}
		wantLanes := 32
		if i%2 == 1 {
			wantLanes = 16
		}
		if s.lanes != wantLanes {
			t.Errorf("warp %d lanes = %d, want %d", i, s.lanes, wantLanes)
		}
	}
}

func TestThreadIdxMapping(t *testing.T) {
	m, _ := newTestMem(t, "A", 64)
	d := &Driver{Mem: m}
	_, err := d.Run(&Kernel{
		KernelName: "tidx",
		Grid:       arch.Dim3{X: 1},
		Block:      arch.Dim3{X: 13, Y: 13}, // C-NN FirstLayer geometry
		Run: func(w *WarpCtx) {
			for lane := 0; lane < w.NumLanes; lane++ {
				tid := w.ThreadIdx(lane)
				linear := w.WarpInCTA*arch.WarpSize + lane
				if tid.X != linear%13 || tid.Y != (linear/13)%13 {
					t.Fatalf("warp %d lane %d: ThreadIdx = %v", w.WarpInCTA, lane, tid)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLinearThreadID(t *testing.T) {
	m, _ := newTestMem(t, "A", 64)
	d := &Driver{Mem: m}
	seen := map[int]bool{}
	_, err := d.Run(&Kernel{
		KernelName: "lin",
		Grid:       arch.Dim3{X: 3},
		Block:      arch.Dim3{X: 64},
		Run: func(w *WarpCtx) {
			for lane := 0; lane < w.NumLanes; lane++ {
				id := w.LinearThreadID(lane)
				if seen[id] {
					t.Fatalf("duplicate linear thread id %d", id)
				}
				seen[id] = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 192 {
		t.Fatalf("saw %d thread ids, want 192", len(seen))
	}
	for i := 0; i < 192; i++ {
		if !seen[i] {
			t.Fatalf("thread id %d missing", i)
		}
	}
}

func TestEmptyLaunchRejected(t *testing.T) {
	m, _ := newTestMem(t, "A", 64)
	d := &Driver{Mem: m}
	if _, err := d.Run(&Kernel{KernelName: "k"}); err == nil {
		t.Fatal("kernel with no warp program accepted")
	}
	if _, err := d.Run(&Kernel{KernelName: "k", Run: func(*WarpCtx) {}}); err == nil {
		t.Fatal("kernel with empty geometry accepted")
	}
}

// TestCoalescePropertyCoversAllBlocks checks the coalescer invariants: no
// more transactions than active lanes, every accessed block covered, no
// duplicates.
func TestCoalescePropertyCoversAllBlocks(t *testing.T) {
	m, b := newTestMem(t, "A", 4096)
	f := func(raw [arch.WarpSize]uint16) bool {
		idx := make([]int32, arch.WarpSize)
		dst := make([]float32, arch.WarpSize)
		want := map[arch.BlockAddr]bool{}
		for lane := range raw {
			idx[lane] = int32(raw[lane]) % 4096
			want[b.ElemAddr(int(idx[lane])).Block()] = true
		}
		d := &Driver{Mem: m, Tracing: true}
		tr, err := d.Run(&Kernel{
			KernelName: "prop",
			Grid:       arch.Dim3{X: 1},
			Block:      arch.Dim3{X: 32},
			Run: func(w *WarpCtx) {
				w.LoadF32(Site{PC: 1}, b, idx, dst)
			},
		})
		if err != nil {
			return false
		}
		txs := transactions(tr)
		if len(txs) > arch.WarpSize || len(txs) != len(want) {
			return false
		}
		got := map[arch.BlockAddr]bool{}
		for _, tx := range txs {
			if got[tx.Block] {
				return false // duplicate transaction
			}
			got[tx.Block] = true
			if !want[tx.Block] {
				return false // spurious block
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKernelWarpCounts(t *testing.T) {
	tests := []struct {
		name        string
		grid, block arch.Dim3
		perCTA      int
		total       int
	}{
		{"one warp", arch.Dim3{X: 1}, arch.Dim3{X: 32}, 1, 1},
		{"partial", arch.Dim3{X: 2}, arch.Dim3{X: 33}, 2, 4},
		{"nn first layer", arch.Dim3{X: 6, Y: 4}, arch.Dim3{X: 13, Y: 13}, 6, 144},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			k := &Kernel{Grid: tt.grid, Block: tt.block}
			if got := k.WarpsPerCTA(); got != tt.perCTA {
				t.Errorf("WarpsPerCTA() = %d, want %d", got, tt.perCTA)
			}
			if got := k.TotalWarps(); got != tt.total {
				t.Errorf("TotalWarps() = %d, want %d", got, tt.total)
			}
		})
	}
}
