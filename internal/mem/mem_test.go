package mem

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

func mustAlloc(t *testing.T, m *Memory, name string, size int, ro bool) *Buffer {
	t.Helper()
	b, err := m.Alloc(name, size, ro)
	if err != nil {
		t.Fatalf("Alloc(%q, %d): %v", name, size, err)
	}
	return b
}

func TestAllocAlignmentAndLayout(t *testing.T) {
	m := New()
	a := mustAlloc(t, m, "A", 100, true) // padded to 128
	b := mustAlloc(t, m, "B", 128, true)
	c := mustAlloc(t, m, "C", 129, false) // padded to 256

	if a.Base%arch.BlockBytes != 0 || b.Base%arch.BlockBytes != 0 || c.Base%arch.BlockBytes != 0 {
		t.Fatal("buffers must be 128 B aligned")
	}
	if b.Base != 128 {
		t.Errorf("B base = %d, want 128", b.Base)
	}
	if c.Base != 256 {
		t.Errorf("C base = %d, want 256", c.Base)
	}
	if got, want := m.Size(), 512; got != want {
		t.Errorf("Size() = %d, want %d", got, want)
	}
	if got, want := m.TotalBlocks(), 4; got != want {
		t.Errorf("TotalBlocks() = %d, want %d", got, want)
	}
	if got, want := c.Blocks(), 2; got != want {
		t.Errorf("C.Blocks() = %d, want %d", got, want)
	}
}

func TestAllocRejects(t *testing.T) {
	m := New()
	mustAlloc(t, m, "A", 64, true)
	if _, err := m.Alloc("A", 64, true); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := m.Alloc("Z", 0, true); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := m.Alloc("Z", -4, true); err == nil {
		t.Error("negative size accepted")
	}
}

func TestBufferLookup(t *testing.T) {
	m := New()
	a := mustAlloc(t, m, "weights", 256, true)
	if got, ok := m.BufferByName("weights"); !ok || got != a {
		t.Error("BufferByName failed")
	}
	if _, ok := m.BufferByName("missing"); ok {
		t.Error("BufferByName found missing buffer")
	}
	if got, ok := m.BufferAt(a.Base + 255); !ok || got != a {
		t.Error("BufferAt inside failed")
	}
	if _, ok := m.BufferAt(a.Base + 256); ok {
		t.Error("BufferAt past end succeeded")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	b := mustAlloc(t, m, "v", 1024, false)
	f := func(i uint16, v float32) bool {
		idx := int(i) % b.Len4()
		if math.IsNaN(float64(v)) {
			v = 0
		}
		m.WriteF32(b.ElemAddr(idx), v)
		return m.ReadF32(b.ElemAddr(idx)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStuckAtFaultIsPermanent(t *testing.T) {
	m := New()
	b := mustAlloc(t, m, "v", 128, false)
	addr := b.ElemAddr(3)
	m.WriteWord(addr, 0)
	if err := m.InjectStuckAt(addr, 0b101, true); err != nil {
		t.Fatalf("InjectStuckAt: %v", err)
	}
	if got := m.ReadWord(addr); got != 0b101 {
		t.Fatalf("read = %#b, want stuck bits 0b101", got)
	}
	// Overwriting does not heal a permanent fault.
	m.WriteWord(addr, 0xFFFF0000)
	if got := m.ReadWord(addr); got != 0xFFFF0000|0b101 {
		t.Fatalf("after rewrite read = %#x, want %#x", got, 0xFFFF0000|0b101)
	}
}

func TestStuckAtZero(t *testing.T) {
	m := New()
	b := mustAlloc(t, m, "v", 128, false)
	addr := b.ElemAddr(0)
	m.WriteWord(addr, 0xFFFFFFFF)
	if err := m.InjectStuckAt(addr, 0xF0, false); err != nil {
		t.Fatalf("InjectStuckAt: %v", err)
	}
	if got := m.ReadWord(addr); got != 0xFFFFFF0F {
		t.Fatalf("read = %#x, want %#x", got, uint32(0xFFFFFF0F))
	}
}

func TestSECDEDCorrectsSingleBitFault(t *testing.T) {
	m := New()
	b := mustAlloc(t, m, "v", 128, false)
	addr := b.ElemAddr(1)
	m.WriteWord(addr, 0x12345678)
	// Single stuck-at-1 on a currently-zero bit: one effective flip → corrected.
	if err := m.InjectStuckAt(addr, 1<<31, true); err != nil {
		t.Fatalf("InjectStuckAt: %v", err)
	}
	if got := m.ReadWord(addr); got != 0x12345678 {
		t.Fatalf("SECDED read = %#x, want corrected %#x", got, 0x12345678)
	}
	// A second stuck bit makes two effective flips, which escape.
	if err := m.InjectStuckAt(addr, 1<<30, true); err != nil {
		t.Fatalf("InjectStuckAt: %v", err)
	}
	if got := m.ReadWord(addr); got != 0xD2345678 {
		t.Fatalf("two-flip read = %#x, want faulty %#x", got, uint32(0xD2345678))
	}
}

func TestSECDEDMultiBitEscapes(t *testing.T) {
	m := New()
	b := mustAlloc(t, m, "v", 128, false)
	addr := b.ElemAddr(2)
	m.WriteWord(addr, 0)
	if err := m.InjectStuckAt(addr, 0b11, true); err != nil { // 2-bit fault
		t.Fatalf("InjectStuckAt: %v", err)
	}
	if got := m.ReadWord(addr); got != 0b11 {
		t.Fatalf("read = %#b, want escaped 0b11", got)
	}
}

func TestStuckAtMatchingStoredValueIsInvisible(t *testing.T) {
	m := New()
	b := mustAlloc(t, m, "v", 128, false)
	addr := b.ElemAddr(0)
	m.WriteWord(addr, 0xFF)
	// Bits already 1 stuck at 1: zero effective flips.
	if err := m.InjectStuckAt(addr, 0xFF, true); err != nil {
		t.Fatalf("InjectStuckAt: %v", err)
	}
	if got := m.ReadWord(addr); got != 0xFF {
		t.Fatalf("read = %#x, want unchanged 0xFF", got)
	}
}

func TestInjectValidation(t *testing.T) {
	m := New()
	mustAlloc(t, m, "v", 128, false)
	if err := m.InjectStuckAt(2, 1, true); err == nil {
		t.Error("unaligned inject accepted")
	}
	if err := m.InjectStuckAt(4096, 1, true); err == nil {
		t.Error("out-of-range inject accepted")
	}
}

func TestFaultAccumulationSameWord(t *testing.T) {
	m := New()
	b := mustAlloc(t, m, "v", 128, false)
	addr := b.ElemAddr(5)
	m.WriteWord(addr, 0)
	if err := m.InjectStuckAt(addr, 0b01, true); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectStuckAt(addr, 0b10, true); err != nil {
		t.Fatal(err)
	}
	if got := m.FaultCount(); got != 1 {
		t.Fatalf("FaultCount() = %d, want 1 (merged)", got)
	}
	if got := m.ReadWord(addr); got != 0b11 {
		t.Fatalf("read = %#b, want 0b11", got)
	}
}

func TestFaultsSortedByAddress(t *testing.T) {
	m := New()
	b := mustAlloc(t, m, "v", 1024, false)
	addrs := []int{50, 3, 17, 200, 9}
	for _, i := range addrs {
		if err := m.InjectStuckAt(b.ElemAddr(i), 1, true); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(m.faults); i++ {
		if m.faults[i].wordAddr <= m.faults[i-1].wordAddr {
			t.Fatal("faults not sorted by address")
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := New()
	b := mustAlloc(t, m, "v", 128, false)
	m.WriteF32(b.ElemAddr(0), 1.5)
	c := m.Clone()
	c.WriteF32(b.ElemAddr(0), 2.5)
	if err := c.InjectStuckAt(b.ElemAddr(1), 1, true); err != nil {
		t.Fatal(err)
	}
	if got := m.ReadF32(b.ElemAddr(0)); got != 1.5 {
		t.Errorf("original mutated: %v", got)
	}
	if m.FaultCount() != 0 {
		t.Error("fault leaked into original")
	}
	if got := c.ReadF32(b.ElemAddr(0)); got != 2.5 {
		t.Errorf("clone read = %v, want 2.5", got)
	}
}

func TestCopyBuffer(t *testing.T) {
	m := New()
	src := mustAlloc(t, m, "src", 256, true)
	dst := mustAlloc(t, m, "dst", 256, true)
	for i := 0; i < src.Len4(); i++ {
		m.WriteF32(src.ElemAddr(i), float32(i))
	}
	if err := m.CopyBuffer(dst, src); err != nil {
		t.Fatalf("CopyBuffer: %v", err)
	}
	for i := 0; i < dst.Len4(); i++ {
		if got := m.ReadF32(dst.ElemAddr(i)); got != float32(i) {
			t.Fatalf("dst[%d] = %v, want %v", i, got, float32(i))
		}
	}
	small := mustAlloc(t, m, "small", 128, true)
	if err := m.CopyBuffer(small, src); err == nil {
		t.Error("copy into smaller buffer accepted")
	}
}

func TestSliceHelpers(t *testing.T) {
	m := New()
	b := mustAlloc(t, m, "v", 64, false)
	want := []float32{1, 2, 3, 4}
	if err := m.WriteF32Slice(b, want); err != nil {
		t.Fatal(err)
	}
	got := m.ReadF32Slice(b, 4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if err := m.WriteF32Slice(b, make([]float32, 17)); err == nil {
		t.Error("oversized write accepted")
	}
	ints := []int32{-1, 7}
	if err := m.WriteI32Slice(b, ints); err != nil {
		t.Fatal(err)
	}
	if got := m.ReadI32(b.ElemAddr(0)); got != -1 {
		t.Errorf("ReadI32 = %d, want -1", got)
	}
}

func BenchmarkReadWordNoFaults(b *testing.B) {
	m := New()
	buf, err := m.Alloc("v", 1<<16, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ReadWord(buf.ElemAddr(i & 8191))
	}
}

func BenchmarkReadWordWithFaults(b *testing.B) {
	m := New()
	buf, err := m.Alloc("v", 1<<16, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := m.InjectStuckAt(buf.ElemAddr(i*100), 0b11, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ReadWord(buf.ElemAddr(i & 8191))
	}
}

func TestFaultIntrospection(t *testing.T) {
	m := New()
	b := mustAlloc(t, m, "weights", 256, true)
	if len(m.Faults()) != 0 {
		t.Fatal("faults listed before injection")
	}
	if err := m.InjectStuckAt(b.ElemAddr(3), 0b101, true); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectStuckAt(b.ElemAddr(1), 0b10, false); err != nil {
		t.Fatal(err)
	}
	recs := m.Faults()
	if len(recs) != 2 {
		t.Fatalf("faults = %d, want 2", len(recs))
	}
	if recs[0].WordAddr > recs[1].WordAddr {
		t.Error("faults not in address order")
	}
	if recs[1].StuckHigh != 0b101 || recs[1].Object != "weights" {
		t.Errorf("record = %+v", recs[1])
	}
	if recs[0].StuckLow != 0b10 {
		t.Errorf("stuck-low mask = %#b", recs[0].StuckLow)
	}
}
