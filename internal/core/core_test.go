package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
	"github.com/datacentric-gpu/dcrm/internal/simt"
)

// prep builds a memory with one read-only object of n floats initialised to
// f(i), plus a plan protecting it.
func prep(t *testing.T, scheme Scheme, n int) (*mem.Memory, *mem.Buffer, *Plan) {
	t.Helper()
	m := mem.New()
	b, err := m.Alloc("hot", n*4, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		m.WriteF32(b.ElemAddr(i), float32(i)+0.5)
	}
	p, err := NewPlan(m, PlanConfig{Scheme: scheme, Objects: []*mem.Buffer{b}})
	if err != nil {
		t.Fatal(err)
	}
	return m, b, p
}

func TestSchemeCopies(t *testing.T) {
	tests := []struct {
		s    Scheme
		want int
		str  string
	}{
		{None, 1, "baseline"},
		{Detection, 2, "detection"},
		{Correction, 3, "detection+correction"},
	}
	for _, tt := range tests {
		if got := tt.s.Copies(); got != tt.want {
			t.Errorf("%v.Copies() = %d, want %d", tt.s, got, tt.want)
		}
		if got := tt.s.String(); got != tt.str {
			t.Errorf("String() = %q, want %q", got, tt.str)
		}
	}
}

func TestPlanAllocatesReplicas(t *testing.T) {
	m, b, p := prep(t, Correction, 64)
	reps := p.Replicas(b)
	if len(reps) != 2 {
		t.Fatalf("replicas = %d, want 2", len(reps))
	}
	for i, r := range reps {
		if !r.ReadOnly {
			t.Errorf("replica %d not read-only", i)
		}
		if r.Base == b.Base {
			t.Errorf("replica %d shares the primary's address", i)
		}
		for j := 0; j < 64; j++ {
			if got := m.ReadF32(r.ElemAddr(j)); got != float32(j)+0.5 {
				t.Fatalf("replica %d element %d = %v, want %v", i, j, got, float32(j)+0.5)
			}
		}
	}
	if !p.IsProtected(b) {
		t.Error("primary not reported protected")
	}
}

func TestCleanReadsPassThrough(t *testing.T) {
	for _, scheme := range []Scheme{None, Detection, Correction} {
		t.Run(scheme.String(), func(t *testing.T) {
			_, b, p := prep(t, scheme, 32)
			for i := 0; i < 32; i++ {
				w, err := p.ReadLaneWord(b, b.ElemAddr(i))
				if err != nil {
					t.Fatalf("clean read %d: %v", i, err)
				}
				if got := f32(w); got != float32(i)+0.5 {
					t.Fatalf("read %d = %v, want %v", i, got, float32(i)+0.5)
				}
			}
		})
	}
}

func f32(w uint32) float32 { return math.Float32frombits(w) }

func TestDetectionCatchesFaultInPrimary(t *testing.T) {
	m, b, p := prep(t, Detection, 32)
	// Element 5 holds 5.5 = 0x40B00000: a 2-bit stuck-at-1 fault on its
	// zero low bits escapes SECDED.
	if err := m.InjectStuckAt(b.ElemAddr(5), 0b110, true); err != nil {
		t.Fatal(err)
	}
	w, err := p.ReadLaneWord(b, b.ElemAddr(5))
	if !errors.Is(err, ErrFaultDetected) || w != 0 {
		t.Fatalf("read = %#x, %v; want 0 and ErrFaultDetected", w, err)
	}
}

func TestDetectionCatchesFaultInReplica(t *testing.T) {
	m, b, p := prep(t, Detection, 32)
	rep := p.Replicas(b)[0]
	// Element 7 holds 7.5 = 0x40F00000: the low mantissa bits are zero, so
	// a 2-bit stuck-at-1 fault flips the replica (and escapes SECDED).
	if err := m.InjectStuckAt(rep.ElemAddr(7), 0b11, true); err != nil {
		t.Fatal(err)
	}
	_, err := p.ReadLaneWord(b, b.ElemAddr(7))
	if !errors.Is(err, ErrFaultDetected) {
		t.Fatalf("err = %v, want ErrFaultDetected", err)
	}
}

func TestCorrectionRepairsSingleCopyFault(t *testing.T) {
	tests := []struct {
		name string
		copy int // 0 = primary, 1/2 = replicas
	}{
		{"primary faulty", 0},
		{"replica 1 faulty", 1},
		{"replica 2 faulty", 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, b, p := prep(t, Correction, 32)
			target := b
			if tt.copy > 0 {
				target = p.Replicas(b)[tt.copy-1]
			}
			if err := m.InjectStuckAt(target.ElemAddr(3), 0xF0F0, true); err != nil {
				t.Fatal(err)
			}
			// The 8-bit fault escapes SECDED, so the vote has a faulty copy
			// to out-vote.
			if got := f32(m.ReadWord(target.ElemAddr(3))); got == 3.5 {
				t.Fatal("the fault does not show in the faulty copy")
			}
			w, err := p.ReadLaneWord(b, b.ElemAddr(3))
			if err != nil {
				t.Fatalf("ReadLaneWord: %v", err)
			}
			if got := f32(w); got != 3.5 {
				t.Fatalf("voted read = %v, want 3.5", got)
			}
		})
	}
}

// TestCorrectionMajorityVoteProperty: for any word and any fault mask
// applied to exactly one copy, the vote returns the original word.
func TestCorrectionMajorityVoteProperty(t *testing.T) {
	f := func(val uint32, mask uint32, which uint8) bool {
		m := mem.New()
		b, err := m.Alloc("o", 128, true)
		if err != nil {
			return false
		}
		m.WriteWord(b.ElemAddr(0), val)
		p, err := NewPlan(m, PlanConfig{Scheme: Correction, Objects: []*mem.Buffer{b}})
		if err != nil {
			return false
		}
		target := b
		if which%3 > 0 {
			target = p.Replicas(b)[which%3-1]
		}
		if err := m.InjectStuckAt(target.ElemAddr(0), mask, which%2 == 0); err != nil {
			return false
		}
		w, err := p.ReadLaneWord(b, b.ElemAddr(0))
		return err == nil && w == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCorrectionFailsWhenTwoCopiesAgreeOnWrongValue(t *testing.T) {
	m, b, p := prep(t, Correction, 8)
	reps := p.Replicas(b)
	// The same stuck-at fault in two copies out-votes the clean one — the
	// residual risk the paper calls "minimal" because copies live at
	// distinct physical locations.
	if err := m.InjectStuckAt(reps[0].ElemAddr(0), 0xFF, true); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectStuckAt(reps[1].ElemAddr(0), 0xFF, true); err != nil {
		t.Fatal(err)
	}
	clean := m.ReadWord(b.ElemAddr(0))
	w, err := p.ReadLaneWord(b, b.ElemAddr(0))
	if err != nil {
		t.Fatal(err)
	}
	if w == clean {
		t.Error("vote repaired a two-copy fault; expected wrong value")
	}
}

func TestUnprotectedObjectBypassesScheme(t *testing.T) {
	m, _, p := prep(t, Detection, 8)
	other, err := m.Alloc("cold", 64, false)
	if err != nil {
		t.Fatal(err)
	}
	m.WriteWord(other.ElemAddr(0), 42)
	// Two stuck-at-1 bits over 42's zero bits 0 and 2 escape SECDED.
	if err := m.InjectStuckAt(other.ElemAddr(0), 0b101, true); err != nil {
		t.Fatal(err)
	}
	w, err := p.ReadLaneWord(other, other.ElemAddr(0))
	if err != nil {
		t.Fatalf("unprotected read errored: %v", err)
	}
	if w != 47 {
		t.Errorf("unprotected faulty read = %d, want 47 (fault visible)", w)
	}
}

func TestPlanValidation(t *testing.T) {
	m := mem.New()
	rw, err := m.Alloc("rw", 64, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlan(m, PlanConfig{Scheme: Detection, Objects: []*mem.Buffer{rw}}); err == nil {
		t.Error("writable object accepted for replication")
	}
	if _, err := NewPlan(m, PlanConfig{Scheme: Scheme(9)}); err == nil {
		t.Error("unknown scheme accepted")
	}
	ro, err := m.Alloc("ro", 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlan(m, PlanConfig{Scheme: Detection, Objects: []*mem.Buffer{ro, ro}}); err == nil {
		t.Error("duplicate object accepted")
	}
	if _, err := NewPlan(m, PlanConfig{Scheme: Detection, Objects: []*mem.Buffer{nil}}); err == nil {
		t.Error("nil object accepted")
	}
	other := mem.New()
	for i := 0; i < 3; i++ {
		if _, err := other.Alloc(fmt.Sprintf("o%d", i), 64, true); err != nil {
			t.Fatal(err)
		}
	}
	for _, foreign := range other.Buffers() {
		if _, err := NewPlan(m, PlanConfig{Scheme: Detection, Objects: []*mem.Buffer{foreign}}); err == nil {
			t.Errorf("object %q of another memory image accepted", foreign.Name)
		}
	}
}

func TestPlanObjectBudget(t *testing.T) {
	m := mem.New()
	var objs []*mem.Buffer
	for i := 0; i < MaxObjectsCorrection+1; i++ {
		b, err := m.Alloc(fmt.Sprintf("o%d", i), 128, true)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, b)
	}
	if _, err := NewPlan(m, PlanConfig{Scheme: Correction, Objects: objs}); err == nil {
		t.Errorf("correction accepted %d objects, budget is %d", len(objs), MaxObjectsCorrection)
	}
	if _, err := NewPlan(m, PlanConfig{Scheme: Detection, Objects: objs}); err != nil {
		t.Errorf("detection rejected %d objects, budget is %d: %v", len(objs), MaxObjectsDetection, err)
	}
}

func TestLoadSiteBudget(t *testing.T) {
	m := mem.New()
	hot, err := m.Alloc("hot", 128, true)
	if err != nil {
		t.Fatal(err)
	}
	var sites []SiteBinding
	for i := 0; i < MaxLoadSites+1; i++ {
		sites = append(sites, SiteBinding{Site: simt.Site{PC: uint16(i)}, Buf: hot})
	}
	if _, err := NewPlan(m, PlanConfig{Scheme: Detection, Objects: []*mem.Buffer{hot}, Sites: sites}); err == nil {
		t.Error("load-site overflow accepted")
	}
	ok, err := NewPlan(m, PlanConfig{Scheme: Detection, Objects: []*mem.Buffer{hot}, Sites: sites[:5]})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ok.ProtectedPCs()); got != 5 {
		t.Errorf("protected PCs = %d, want 5", got)
	}
}

func TestTimingPlanInterface(t *testing.T) {
	_, b, p := prep(t, Detection, 64) // 64 floats = 2 blocks
	if got := p.Copies(0, int16(b.ID)); got != 2 {
		t.Errorf("Copies = %d, want 2", got)
	}
	if got := p.Copies(0, int16(b.ID+99)); got != 1 {
		t.Errorf("Copies(unprotected) = %d, want 1", got)
	}
	if !p.Lazy() {
		t.Error("detection plan not lazy")
	}
	rep := p.Replicas(b)[0]
	// Second block of the primary maps to the second block of the replica.
	got := p.ReplicaBlock(int16(b.ID), b.FirstBlock()+1, 1)
	if want := rep.FirstBlock() + 1; got != want {
		t.Errorf("ReplicaBlock = %d, want %d", got, want)
	}
	// Unknown copy index falls back to the primary block.
	if got := p.ReplicaBlock(int16(b.ID), b.FirstBlock(), 5); got != b.FirstBlock() {
		t.Error("out-of-range copy index did not fall back")
	}
}

// TestPrimaryWord pins the replica→primary map batched campaigns seed
// their divergent words through: under both schemes, every word of every
// copy — the first block and the padded tail of the last included — maps
// to the word at the same offset of the primary, the one whose reads
// compare or vote against it. Primary words, unprotected words and
// unallocated addresses map to themselves.
func TestPrimaryWord(t *testing.T) {
	for _, scheme := range []Scheme{Detection, Correction} {
		m := mem.New()
		hot, err := m.Alloc("hot", 70*4, true) // three blocks, the last partial
		if err != nil {
			t.Fatal(err)
		}
		cold, err := m.Alloc("cold", 40*4, true)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlan(m, PlanConfig{Scheme: scheme, Objects: []*mem.Buffer{hot}})
		if err != nil {
			t.Fatal(err)
		}
		reps := p.Replicas(hot)
		if len(reps) != scheme.Copies()-1 {
			t.Fatalf("%v: %d replicas, want %d", scheme, len(reps), scheme.Copies()-1)
		}
		words := hot.Blocks() * arch.BlockBytes / arch.WordBytes
		for c, r := range reps {
			for i := 0; i < words; i++ {
				if got, want := p.PrimaryWord(r.ElemAddr(i)), hot.ElemAddr(i); got != want {
					t.Fatalf("%v copy %d word %d: PrimaryWord = %#x, want %#x", scheme, c+1, i, got, want)
				}
			}
		}
		for _, a := range []arch.Addr{hot.ElemAddr(0), hot.ElemAddr(69), cold.ElemAddr(5), arch.Addr(m.Size()), arch.Addr(m.Size() + 4*arch.BlockBytes)} {
			if got := p.PrimaryWord(a); got != a {
				t.Errorf("%v: PrimaryWord(%#x) = %#x, want the address itself", scheme, a, got)
			}
		}
	}
}

func TestCorrectionNotLazy(t *testing.T) {
	_, _, p := prep(t, Correction, 8)
	if p.Lazy() {
		t.Error("correction plan reported lazy")
	}
}

func TestForMemoryRebind(t *testing.T) {
	m, b, p := prep(t, Detection, 16)
	clone := m.Clone()
	if err := clone.InjectStuckAt(b.ElemAddr(2), 0b11, true); err != nil {
		t.Fatal(err)
	}
	cp := p.ForMemory(clone)
	// The clone's plan detects the clone's fault…
	if _, err := cp.ReadLaneWord(b, b.ElemAddr(2)); !errors.Is(err, ErrFaultDetected) {
		t.Fatalf("clone plan err = %v, want detection", err)
	}
	// …while the original memory stays clean.
	if w, err := p.ReadLaneWord(b, b.ElemAddr(2)); err != nil || f32(w) != 2.5 {
		t.Fatalf("original plan read = %v, %v; want 2.5", f32(w), err)
	}
}

func TestCost(t *testing.T) {
	_, b, p := prep(t, Correction, 256)
	c := p.Cost()
	if c.ReplicaBytes != 2*b.Size {
		t.Errorf("ReplicaBytes = %d, want %d", c.ReplicaBytes, 2*b.Size)
	}
	if c.AddrTableBytes != 128 || c.LoadTableBytes != 128 || c.CompareBufferBytes != 128 {
		t.Errorf("fixed tables = %+v, want 128 B each", c)
	}
	if c.ComparatorBits != 256 || c.AdderBits != 32 {
		t.Errorf("datapath = %+v, want 256-bit comparator, 32-bit adder", c)
	}
}

func TestSECDEDSingleBitInvisibleToDetection(t *testing.T) {
	// With the SECDED model on, a 1-bit fault is corrected before the
	// comparison: no terminate, clean value.
	m, b, p := prep(t, Detection, 8)
	if err := m.InjectStuckAt(b.ElemAddr(1), 1<<9, true); err != nil {
		t.Fatal(err)
	}
	w, err := p.ReadLaneWord(b, b.ElemAddr(1))
	if err != nil {
		t.Fatalf("single-bit fault triggered detection despite SECDED: %v", err)
	}
	if got := f32(w); got != 1.5 {
		t.Errorf("read = %v, want 1.5", got)
	}
}

func BenchmarkDetectionRead(b *testing.B) {
	m := mem.New()
	buf, err := m.Alloc("hot", 4096, true)
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPlan(m, PlanConfig{Scheme: Detection, Objects: []*mem.Buffer{buf}})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ReadLaneWord(buf, buf.ElemAddr(rng.Intn(1024))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorrectionRead(b *testing.B) {
	m := mem.New()
	buf, err := m.Alloc("hot", 4096, true)
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPlan(m, PlanConfig{Scheme: Correction, Objects: []*mem.Buffer{buf}})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ReadLaneWord(buf, buf.ElemAddr(rng.Intn(1024))); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPlanDescribe(t *testing.T) {
	m := mem.New()
	a, err := m.Alloc("r", 64, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Alloc("p", 64, true)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewPlan(m, PlanConfig{Scheme: None})
	if err != nil {
		t.Fatal(err)
	}
	if got := base.Describe(); got != "baseline (no protection)" {
		t.Errorf("baseline Describe = %q", got)
	}
	p, err := NewPlan(m, PlanConfig{Scheme: Detection, Objects: []*mem.Buffer{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	d := p.Describe()
	for _, want := range []string{"detection", "p, r", "replica"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe() = %q, missing %q", d, want)
		}
	}
}
