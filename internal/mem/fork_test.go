package mem

import (
	"sync"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

// forkFixture builds a root image with a read-only input object and a
// writable output object, both initialised.
func forkFixture(t testing.TB) (*Memory, *Buffer, *Buffer) {
	t.Helper()
	m := New()
	in, err := m.Alloc("in", 512, true)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Alloc("out", 512, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < in.Len4(); i++ {
		m.WriteF32(in.ElemAddr(i), float32(i)+0.5)
	}
	return m, in, out
}

func TestForkReadsShareRoot(t *testing.T) {
	m, in, _ := forkFixture(t)
	f := m.Fork()
	if !f.IsFork() || m.IsFork() {
		t.Fatal("IsFork misreports")
	}
	if f.Size() != m.Size() || f.TotalBlocks() != m.TotalBlocks() {
		t.Fatalf("fork geometry %d/%d != root %d/%d", f.Size(), f.TotalBlocks(), m.Size(), m.TotalBlocks())
	}
	for i := 0; i < in.Len4(); i++ {
		if got, want := f.ReadF32(in.ElemAddr(i)), m.ReadF32(in.ElemAddr(i)); got != want {
			t.Fatalf("elem %d: fork reads %v, root %v", i, got, want)
		}
	}
	if f.DirtyBlocks() != 0 || f.CopiedBlocks() != 0 {
		t.Fatalf("pure reads materialized %d blocks", f.DirtyBlocks())
	}
}

func TestForkSiblingWriteIsolation(t *testing.T) {
	m, _, out := forkFixture(t)
	a, b := m.Fork(), m.Fork()
	addr := out.ElemAddr(3)
	a.WriteF32(addr, 1.0)
	b.WriteF32(addr, 2.0)
	if got := a.ReadF32(addr); got != 1.0 {
		t.Errorf("fork a reads %v, want its own 1.0", got)
	}
	if got := b.ReadF32(addr); got != 2.0 {
		t.Errorf("fork b reads %v, want its own 2.0", got)
	}
	if got := m.ReadF32(addr); got != 0 {
		t.Errorf("root was modified through a fork: %v", got)
	}
	// The write dirtied exactly one block on each fork.
	if a.DirtyBlocks() != 1 || b.DirtyBlocks() != 1 {
		t.Errorf("dirty blocks = %d/%d, want 1/1", a.DirtyBlocks(), b.DirtyBlocks())
	}
	// Unwritten words of the written block keep the shared value.
	if got, want := a.ReadF32(out.ElemAddr(4)), m.ReadF32(out.ElemAddr(4)); got != want {
		t.Errorf("neighbour word diverged: %v vs %v", got, want)
	}
}

// TestForkGoldenImmutableUnderConcurrentWriters hammers one root from many
// forked writers; run with -race. The root's bytes must stay untouched.
func TestForkGoldenImmutableUnderConcurrentWriters(t *testing.T) {
	m, in, out := forkFixture(t)
	want := m.Clone()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := m.Fork()
			for iter := 0; iter < 50; iter++ {
				for i := 0; i < out.Len4(); i++ {
					f.WriteF32(out.ElemAddr(i), float32(g*1000+i))
				}
				if err := f.InjectStuckAt(in.ElemAddr(2*g), 0x3, true); err != nil {
					t.Error(err)
					return
				}
				_ = f.ReadF32(in.ElemAddr(2 * g))
				f.Reset()
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < m.Size(); i += arch.WordBytes {
		if got, w := m.ReadWord(arch.Addr(i)), want.ReadWord(arch.Addr(i)); got != w {
			t.Fatalf("root word %#x changed: %#x -> %#x", i, w, got)
		}
	}
	if m.FaultCount() != 0 {
		t.Fatalf("fork faults leaked into the root: %d", m.FaultCount())
	}
}

// TestForkSteadyStateZeroAllocs is the fast-path contract: once a pooled
// fork has materialized its working set, a Reset + re-dirty + read cycle
// performs no heap allocations.
func TestForkSteadyStateZeroAllocs(t *testing.T) {
	m, in, out := forkFixture(t)
	f := m.Fork()
	cycle := func() {
		f.Reset()
		if err := f.InjectStuckAt(in.ElemAddr(1), 0x5, true); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < out.Len4(); i++ {
			f.WriteF32(out.ElemAddr(i), float32(i))
		}
		for i := 0; i < in.Len4(); i++ {
			_ = f.ReadF32(in.ElemAddr(i))
		}
		if f.FaultsInert() {
			t.Fatal("two effective flips on a read-only word must not be inert")
		}
	}
	cycle() // warm the arena to its steady-state capacity
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("steady-state fork cycle allocates %v times per run, want 0", allocs)
	}
}

func TestForkCloneResolves(t *testing.T) {
	m, _, out := forkFixture(t)
	f := m.Fork()
	f.WriteF32(out.ElemAddr(0), 42)
	c := f.Clone()
	if c.IsFork() {
		t.Fatal("clone of a fork is still a fork")
	}
	if got := c.ReadF32(out.ElemAddr(0)); got != 42 {
		t.Errorf("clone lost the fork-private write: %v", got)
	}
	if got := c.ReadF32(out.ElemAddr(1)); got != 0 {
		t.Errorf("clone corrupted a shared word: %v", got)
	}
}

func TestForkAllocRejected(t *testing.T) {
	m, _, _ := forkFixture(t)
	f := m.Fork()
	if _, err := f.Alloc("x", 128, true); err == nil {
		t.Fatal("Alloc on a fork must fail")
	}
}

func TestDivergesFrom(t *testing.T) {
	m, in, out := forkFixture(t)
	golden := m.Fork()
	for i := 0; i < out.Len4(); i++ {
		golden.WriteF32(out.ElemAddr(i), float32(i)*2)
	}

	// Identical writes: no divergence.
	f := m.Fork()
	for i := 0; i < out.Len4(); i++ {
		f.WriteF32(out.ElemAddr(i), float32(i)*2)
	}
	if f.DivergesFrom(golden) {
		t.Fatal("identical forks reported divergent")
	}

	// One word off: divergent (caught via the dirty-block compare).
	f.WriteF32(out.ElemAddr(7), -1)
	if !f.DivergesFrom(golden) {
		t.Fatal("differing output word not detected")
	}

	// A block the golden run wrote but the faulty run did not: divergent.
	g := m.Fork()
	if g.DivergesFrom(golden) != true {
		t.Fatal("missing golden writes not detected")
	}

	// Fault-overlay divergence on a clean block: raw bytes equal everywhere,
	// but the overlaid word reads differently.
	h := m.Fork()
	for i := 0; i < out.Len4(); i++ {
		h.WriteF32(out.ElemAddr(i), float32(i)*2)
	}
	if err := h.InjectStuckAt(in.ElemAddr(0), 0x3, true); err != nil { // 2 flips escape SECDED
		t.Fatal(err)
	}
	if !h.DivergesFrom(golden) {
		t.Fatal("fault-overlay divergence not detected")
	}
	h.ClearFaults()
	if h.DivergesFrom(golden) {
		t.Fatal("cleared faults still divergent")
	}
}

func TestFaultsInert(t *testing.T) {
	m, in, out := forkFixture(t)
	// in holds values like 1.5, 2.5...; word bits vary. Use fixed patterns.
	m.WriteWord(in.ElemAddr(0), 0x0000_0000)
	m.WriteWord(in.ElemAddr(1), 0xFFFF_FFFF)

	cases := []struct {
		name  string
		setup func(f *Memory) error
		inert bool
	}{
		{"no faults", func(f *Memory) error { return nil }, true},
		{"read-only, bits already match", func(f *Memory) error {
			return f.InjectStuckAt(in.ElemAddr(0), 0x3, false) // stuck-at-0 over zeros
		}, true},
		{"read-only, one effective flip", func(f *Memory) error {
			return f.InjectStuckAt(in.ElemAddr(0), 0x1, true)
		}, true},
		{"read-only, two effective flips", func(f *Memory) error {
			return f.InjectStuckAt(in.ElemAddr(0), 0x3, true)
		}, false},
		{"mixed polarity, one effective flip", func(f *Memory) error {
			// Over 0xFFFFFFFF: stuck-at-1 bits match, one stuck-at-0 flips.
			if err := f.InjectStuckAt(in.ElemAddr(1), 0x6, true); err != nil {
				return err
			}
			return f.InjectStuckAt(in.ElemAddr(1), 0x8, false)
		}, true},
		{"writable object", func(f *Memory) error {
			return f.InjectStuckAt(out.ElemAddr(0), 0x1, true) // even 1 bit: a store may re-arm it
		}, false},
		{"allocation padding", func(f *Memory) error {
			// in is 512 B = 4 full blocks; out starts at the next block. No
			// padding there, so fault the word just past out's used extent…
			// out is also full-block; instead shrink-case: fault beyond all
			// buffers is impossible (image ends). Use a padded buffer.
			return nil
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := m.Fork()
			if err := tc.setup(f); err != nil {
				t.Fatal(err)
			}
			if got := f.FaultsInert(); got != tc.inert {
				t.Errorf("FaultsInert = %v, want %v", got, tc.inert)
			}
		})
	}

	// Padding: a 4-byte object pads its block to 128 B. Padding words are
	// never written (stores are bounds-checked), so a value-matching fault
	// there is inert even though the owning object is writable — but a
	// fault that actually flips padding bits is not (wrapped out-of-bounds
	// loads can read padding).
	p := New()
	tiny, err := p.Alloc("tiny", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Fork()
	if err := f.InjectStuckAt(tiny.Base+4, 0xF, false); err != nil { // stuck-at-0 over zeros
		t.Fatal(err)
	}
	if !f.FaultsInert() {
		t.Error("value-matching padding fault should be inert")
	}
	if err := f.InjectStuckAt(tiny.Base+8, 0xF, true); err != nil { // 4 effective flips
		t.Fatal(err)
	}
	if f.FaultsInert() {
		t.Error("bit-flipping padding fault must not be inert (OOB loads can read it)")
	}
	f.ClearFaults()
	if err := f.InjectStuckAt(tiny.Base, 0x1, true); err != nil {
		t.Fatal(err)
	}
	if f.FaultsInert() {
		t.Error("fault in a writable word must not be inert")
	}
}
