package simt

import (
	"math"
	"reflect"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// typedLoads is what one warp of wordsKernel loaded, as raw bits: the
// vector load per lane and the broadcast load.
type typedLoads struct {
	Vec [arch.WarpSize]uint32
	BC  uint32
}

// TestTypedLoadsShareOneWordPath loads words that a float32 round trip
// could disturb through LoadF32 and LoadI32, as vector and as broadcast
// loads, in every mode of the load path: plain, traced, captured, replayed
// on clean words (served from the recording), replayed after a dirty word
// (read through memory), and with a permissive out-of-bounds lane. Both
// element types must see the same raw bits, equal to the words the mode
// reads, and must record and trace the same instructions; a capture must
// hold the raw words.
func TestTypedLoadsShareOneWordPath(t *testing.T) {
	specials := []uint32{
		0x7f800001, // signalling NaN: a quieting conversion sets bit 22
		0x7fc01234, // quiet NaN with a payload
		0x80000000, // -0
		0x00000001, // the smallest denormal: flushing it reads 0
		0xffffffff, // all ones: a NaN as float32, -1 as int32
	}
	m := mem.New()
	in, err := m.Alloc("in", 64*4, true) // two blocks
	if err != nil {
		t.Fatal(err)
	}
	other, err := m.Alloc("other", arch.WarpSize*4, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < in.Len4(); i++ {
		m.WriteWord(in.ElemAddr(i), specials[i%len(specials)])
	}
	for i := 0; i < other.Len4(); i++ {
		m.WriteWord(other.ElemAddr(i), specials[(i+2)%len(specials)])
	}
	// Out of bounds, these indices of in name other[3] and other[4].
	const oobVec, oobBC = 67, 68
	if in.ElemAddr(oobVec) != other.ElemAddr(3) || in.ElemAddr(oobBC) != other.ElemAddr(4) {
		t.Fatal("other does not follow in directly")
	}
	// flipped holds the complement of every word of in: a lane served from
	// the recording reads m's word, one read through memory flipped's.
	flipped := m.Clone()
	for i := 0; i < in.Len4(); i++ {
		flipped.WriteWord(in.ElemAddr(i), ^m.ReadWord(in.ElemAddr(i)))
	}

	const sentinel = 0x5a5a5a5a // what an inactive lane's destination keeps
	vecSite, bcSite := Site{PC: 1, Name: "ld.vec"}, Site{PC: 2, Name: "ld.bc"}
	// wordsKernel gathers in[idx] and broadcasts in[bidx] through the
	// float32 or the int32 methods, and stores the raw bits into got.
	wordsKernel := func(f32 bool, idx []int32, bidx int32, got *typedLoads) *Kernel {
		return &Kernel{KernelName: "words", Grid: arch.Dim3{X: 1}, Block: arch.Dim3{X: arch.WarpSize}, Run: func(w *WarpCtx) {
			if f32 {
				v := w.ScratchF32(0)
				for lane := range v {
					v[lane] = math.Float32frombits(sentinel)
				}
				w.LoadF32(vecSite, in, idx, v)
				for lane, x := range v {
					got.Vec[lane] = math.Float32bits(x)
				}
				got.BC = math.Float32bits(w.LoadF32Broadcast(bcSite, in, bidx))
				return
			}
			v := w.ScratchI32(0)
			for lane := range v {
				v[lane] = sentinel
			}
			w.LoadI32(vecSite, in, idx, v)
			for lane, x := range v {
				got.Vec[lane] = uint32(x)
			}
			got.BC = uint32(w.LoadI32Broadcast(bcSite, in, bidx))
		}}
	}
	// Every odd word across both blocks, lane 5 predicated off.
	idx := make([]int32, arch.WarpSize)
	for lane := range idx {
		idx[lane] = int32(2*lane + 1)
	}
	idx[5] = InactiveLane
	oobIdx := append([]int32(nil), idx...)
	oobIdx[7] = oobVec
	const bidx, dirtyLane = 4, 4

	wantFrom := func(src *mem.Memory, idx []int32, bidx int32) typedLoads {
		var l typedLoads
		for lane, i := range idx {
			l.Vec[lane] = sentinel
			if i != InactiveLane {
				l.Vec[lane] = src.ReadWord(in.ElemAddr(int(i)))
			}
		}
		l.BC = src.ReadWord(in.ElemAddr(int(bidx)))
		return l
	}
	wantClean := wantFrom(m, idx, bidx)
	wantDirty := wantClean
	wantDirty.Vec[dirtyLane] = flipped.ReadWord(in.ElemAddr(int(idx[dirtyLane])))
	wantDirty.BC = flipped.ReadWord(in.ElemAddr(bidx))

	run := func(d *Driver, k *Kernel) *KernelTrace {
		t.Helper()
		tr, err := d.Run(k)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// replay records k on m, then replays its warp on flipped with the
	// given words dirty.
	replay := func(k *Kernel, dirty ...arch.Addr) {
		t.Helper()
		log := &CaptureLog{}
		run(&Driver{Mem: m.Clone(), Capture: log}, k)
		d := NewDirtySet(flipped.TotalBlocks())
		for _, a := range dirty {
			d.AddWord(a)
		}
		rp := &LaneReplay{Dirty: d, Bufs: flipped.Buffers()}
		if err := (&Driver{Mem: flipped}).RunWarp(k, log.Warps[0][0], rp); err != nil {
			t.Fatal(err)
		}
		if rp.desync {
			t.Fatal("an in-sync warp desynced")
		}
	}

	modes := []struct {
		name string
		idx  []int32
		bidx int32
		want typedLoads
		// run executes k and returns its trace and recording, if any.
		run func(k *Kernel) (*KernelTrace, [][]*WarpCapture)
	}{
		{"plain", idx, bidx, wantClean, func(k *Kernel) (*KernelTrace, [][]*WarpCapture) {
			run(&Driver{Mem: m.Clone()}, k)
			return nil, nil
		}},
		{"traced", idx, bidx, wantClean, func(k *Kernel) (*KernelTrace, [][]*WarpCapture) {
			return run(&Driver{Mem: m.Clone(), Tracing: true}, k), nil
		}},
		{"captured", idx, bidx, wantClean, func(k *Kernel) (*KernelTrace, [][]*WarpCapture) {
			log := &CaptureLog{}
			run(&Driver{Mem: m.Clone(), Capture: log}, k)
			return nil, log.Warps
		}},
		{"replayed clean", idx, bidx, wantClean, func(k *Kernel) (*KernelTrace, [][]*WarpCapture) {
			replay(k)
			return nil, nil
		}},
		{"replayed dirty", idx, bidx, wantDirty, func(k *Kernel) (*KernelTrace, [][]*WarpCapture) {
			replay(k, in.ElemAddr(int(idx[dirtyLane])), in.ElemAddr(bidx))
			return nil, nil
		}},
		{"permissive out of bounds", oobIdx, oobBC, wantFrom(m, oobIdx, oobBC), func(k *Kernel) (*KernelTrace, [][]*WarpCapture) {
			log := &CaptureLog{}
			tr := run(&Driver{Mem: m.Clone(), PermissiveOOB: true, Tracing: true, Capture: log}, k)
			return tr, log.Warps
		}},
	}
	for _, md := range modes {
		var got [2]typedLoads
		var traces [2]*KernelTrace
		var warps [2][][]*WarpCapture
		for v, f32 := range []bool{true, false} {
			traces[v], warps[v] = md.run(wordsKernel(f32, md.idx, md.bidx, &got[v]))
		}
		if got[0] != md.want || got[1] != md.want {
			t.Errorf("%s: LoadF32 read %#x,\nLoadI32 read %#x,\nwant %#x", md.name, got[0], got[1], md.want)
		}
		if traces[0] != nil && len(traces[0].Warps[0]) != 2 {
			t.Errorf("%s: %d traced instructions, want 2", md.name, len(traces[0].Warps[0]))
		}
		if !reflect.DeepEqual(traces[0], traces[1]) {
			t.Errorf("%s: traces differ:\n%+v\n%+v", md.name, traces[0], traces[1])
		}
		if !reflect.DeepEqual(warps[0], warps[1]) {
			t.Errorf("%s: recordings differ:\n%+v\n%+v", md.name, warps[0][0][0], warps[1][0][0])
		}
		if warps[0] == nil {
			continue
		}
		loads := warps[0][0][0].Loads
		for lane, i := range md.idx {
			want := md.want.Vec[lane]
			if i == InactiveLane {
				want = 0
			}
			if loads[0].Vals[lane] != want {
				t.Errorf("%s: lane %d recorded %#x, want %#x", md.name, lane, loads[0].Vals[lane], want)
			}
		}
		if loads[1].Vals[0] != md.want.BC {
			t.Errorf("%s: broadcast recorded %#x, want %#x", md.name, loads[1].Vals[0], md.want.BC)
		}
	}
}
