package simt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

// TestLaunchRecordShapes records one warp's loads and stores and pins how
// each index vector is kept: a constant-stride prefix of active lanes as
// (Base, Stride, Lanes), stride 0 included, anything else in Idx with
// InactiveLane markers, trailing inactive lanes dropped, and a broadcast
// by its one index. Every access's words land in Vals, 0 at an inactive
// lane, and ApproxBytes counts exactly the arenas and the launch header.
func TestLaunchRecordShapes(t *testing.T) {
	m, in := newTestMem(t, "in", 64)
	out, err := m.Alloc("out", 32*4, false)
	if err != nil {
		t.Fatal(err)
	}
	ld, st := Site{PC: 1, Name: "ld"}, Site{PC: 2, Name: "st"}
	k := &Kernel{KernelName: "shapes", Grid: arch.Dim3{X: 1}, Block: arch.Dim3{X: arch.WarpSize}, Run: func(w *WarpCtx) {
		idx, v := w.ScratchI32(0), w.ScratchF32(0)
		for lane := range idx {
			idx[lane] = int32(2*lane + 1)
		}
		w.LoadF32(ld, in, idx, v) // affine: base 1, stride 2
		idx[5] = InactiveLane
		w.LoadF32(ld, in, idx, v) // a hole: gather
		for lane := range idx {
			idx[lane] = InactiveLane
			if lane < 10 {
				idx[lane] = 3
			}
		}
		w.LoadF32(ld, in, idx, v) // ten lanes of one element: stride 0
		w.LoadF32Broadcast(ld, in, 7)
		for lane := range idx {
			idx[lane] = InactiveLane
			if lane < 20 {
				idx[lane] = int32(lane)
			}
		}
		w.StoreF32(st, out, idx, v)
	}}
	log := &CaptureLog{}
	if _, err := (&Driver{Mem: m, Capture: log}).Run(k); err != nil {
		t.Fatal(err)
	}
	l := &log.Launches[0]
	wc := l.Warp(0)
	want := []struct {
		kind         AccessKind
		lanes        uint8
		base, stride int32
	}{{Affine, 32, 1, 2}, {Gather, 32, 0, 0}, {Affine, 10, 3, 0}, {Broadcast, 0, 7, 0}, {Affine, 20, 0, 1}}
	recs := append(append([]Access(nil), wc.Loads...), wc.Stores...)
	if len(recs) != len(want) {
		t.Fatalf("%d records, want %d", len(recs), len(want))
	}
	var buf [arch.WarpSize]int32
	for i, w := range want {
		a := &recs[i]
		if a.Kind != w.kind || a.Lanes != w.lanes || a.Base != w.base || a.Stride != w.stride {
			t.Errorf("record %d: kind %d lanes %d base %d stride %d, want %+v", i, a.Kind, a.Lanes, a.Base, a.Stride, w)
		}
	}
	gather := wc.Index(&wc.Loads[1], &buf)
	if gather[5] != InactiveLane || gather[6] != 13 || len(l.Idx) != arch.WarpSize {
		t.Errorf("gather vector %v in an Idx arena of %d", gather, len(l.Idx))
	}
	if got := wc.Vals(&wc.Loads[1]); got[5] != 0 || got[6] != math.Float32bits(13) {
		t.Errorf("gather values %v, want 0 at the inactive lane and lane 6's word", got)
	}
	if got := wc.Vals(&wc.Loads[3]); len(got) != 1 || got[0] != math.Float32bits(7) {
		t.Errorf("broadcast values %v, want in[7]'s word", got)
	}
	if got, want := len(l.Vals), 32+32+10+1+20; got != want {
		t.Errorf("%d recorded words, want %d", got, want)
	}
	if got, want := log.ApproxBytes(), int64(unsafe.Sizeof(*l))+int64(len(l.Warps))*24+
		int64(len(l.Loads)+len(l.Stores))*24+int64(len(l.Idx)+len(l.Vals))*4+int64(len(l.Blocks))*8; got != want {
		t.Errorf("ApproxBytes %d, want %d", got, want)
	}
}

// TestArenaBytesAreLittleEndianFields pins the recording's persisted form:
// each arena encodes as its elements' fields in declaration order, each
// little-endian, with no padding — exactly what encoding/binary writes,
// which is how a big-endian host encodes — and a gob round trip returns
// the launch unchanged.
func TestArenaBytesAreLittleEndianFields(t *testing.T) {
	if got := [2]uintptr{unsafe.Sizeof(Access{}), unsafe.Sizeof(WarpRec{})}; got != [2]uintptr{24, 24} {
		t.Fatalf("Access and WarpRec are %v bytes, want 24 each with no padding", got)
	}
	m, in := newTestMem(t, "in", 64)
	k := &Kernel{KernelName: "enc", Grid: arch.Dim3{X: 2}, Block: arch.Dim3{X: arch.WarpSize}, Run: func(w *WarpCtx) {
		idx, v := w.ScratchI32(0), w.ScratchF32(0)
		for lane := range idx {
			idx[lane] = int32((lane * 7) % 64) // not affine past lane 9
		}
		w.LoadF32(Site{PC: 3}, in, idx, v)
		w.LoadF32Broadcast(Site{PC: 4}, in, int32(w.CTAIdx.X))
	}}
	log := &CaptureLog{}
	if _, err := (&Driver{Mem: m, Capture: log}).Run(k); err != nil {
		t.Fatal(err)
	}
	l := log.Launches[0]
	for i, a := range []interface{ GobEncode() ([]byte, error) }{l.Warps, l.Loads, l.Stores, l.Idx, l.Vals, l.Blocks} {
		got, err := a.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := binary.Write(&want, binary.LittleEndian, a); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("arena %d encodes as %x, want %x", i, got, want.Bytes())
		}
	}
	var enc bytes.Buffer
	if err := gob.NewEncoder(&enc).Encode(l); err != nil {
		t.Fatal(err)
	}
	var back Launch
	if err := gob.NewDecoder(&enc).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, l) {
		t.Errorf("gob round trip changed the launch:\n%+v\n%+v", back, l)
	}
	var bad Arena[Access]
	if err := bad.GobDecode(make([]byte, 25)); err == nil {
		t.Error("25 bytes decode as whole 24-byte records")
	}
}
