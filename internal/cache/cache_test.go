package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

func tiny(t *testing.T, ways int) *Cache {
	t.Helper()
	// 4 sets × ways.
	c, err := New(arch.CacheGeometry{SizeBytes: 4 * ways * 128, Ways: ways, LineBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// blockInSet returns the i-th block that maps to the given set of a 4-set cache.
func blockInSet(set, i int) arch.BlockAddr { return arch.BlockAddr(set + 4*i) }

func TestReadMissThenFillThenHit(t *testing.T) {
	c := tiny(t, 2)
	b := blockInSet(1, 0)
	if c.Read(b) {
		t.Fatal("cold read hit")
	}
	if _, had := c.Fill(b); had {
		t.Fatal("cold fill evicted")
	}
	if !c.Read(b) {
		t.Fatal("read after fill missed")
	}
	if c.Stats.Reads != 2 || c.Stats.ReadMisses != 1 {
		t.Errorf("stats = %+v, want 2 reads 1 miss", c.Stats)
	}
	if got := c.Stats.ReadHitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny(t, 2)
	a, b, d := blockInSet(0, 0), blockInSet(0, 1), blockInSet(0, 2)
	c.Fill(a)
	c.Fill(b)
	c.Read(a) // a is now MRU; b is LRU
	ev, had := c.Fill(d)
	if !had || ev.Block != b {
		t.Fatalf("Fill evicted %+v (had=%v), want %v", ev, had, b)
	}
	if !c.Probe(a) || !c.Probe(d) || c.Probe(b) {
		t.Fatal("post-eviction residency wrong")
	}
}

func TestFillResidentRefreshesLRU(t *testing.T) {
	c := tiny(t, 2)
	a, b, d := blockInSet(0, 0), blockInSet(0, 1), blockInSet(0, 2)
	c.Fill(a)
	c.Fill(b)
	c.Fill(a) // refresh a; b becomes LRU
	ev, had := c.Fill(d)
	if !had || ev.Block != b {
		t.Fatalf("expected b evicted, got %+v had=%v", ev, had)
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := tiny(t, 1)
	a, b := blockInSet(2, 0), blockInSet(2, 1)
	c.Fill(a)
	if !c.Write(a) {
		t.Fatal("write to resident line missed")
	}
	ev, had := c.Fill(b)
	if !had || !ev.Dirty || ev.Block != a {
		t.Fatalf("eviction = %+v had=%v, want dirty a", ev, had)
	}
	if c.Stats.DirtyEvictions != 1 {
		t.Errorf("DirtyEvictions = %d, want 1", c.Stats.DirtyEvictions)
	}
}

func TestWriteMissDoesNotAllocate(t *testing.T) {
	c := tiny(t, 2)
	b := blockInSet(0, 0)
	if c.Write(b) {
		t.Fatal("write miss reported hit")
	}
	if c.Probe(b) {
		t.Fatal("write miss allocated a line (policy is no-write-allocate)")
	}
	if c.Stats.WriteMisses != 1 {
		t.Errorf("WriteMisses = %d, want 1", c.Stats.WriteMisses)
	}
}

func TestInvalidateAll(t *testing.T) {
	c := tiny(t, 2)
	for i := 0; i < 8; i++ {
		c.Fill(arch.BlockAddr(i))
	}
	c.InvalidateAll()
	for i := 0; i < 8; i++ {
		if c.Probe(arch.BlockAddr(i)) {
			t.Fatalf("block %d still resident after InvalidateAll", i)
		}
	}
}

func TestProbeDoesNotTouchStats(t *testing.T) {
	c := tiny(t, 2)
	c.Fill(blockInSet(0, 0))
	before := c.Stats
	c.Probe(blockInSet(0, 0))
	c.Probe(blockInSet(0, 9))
	if c.Stats != before {
		t.Error("Probe mutated stats")
	}
}

func TestSetIsolation(t *testing.T) {
	c := tiny(t, 1)
	// Blocks in different sets must not evict each other.
	for set := 0; set < 4; set++ {
		c.Fill(blockInSet(set, 0))
	}
	for set := 0; set < 4; set++ {
		if !c.Probe(blockInSet(set, 0)) {
			t.Fatalf("set %d lost its line to another set", set)
		}
	}
}

// TestLRUStackProperty verifies the LRU inclusion property: any block
// resident in a k-way cache is also resident in a (k+1)-way cache of the
// same set count under the same access stream.
func TestLRUStackProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		small := mustNew(arch.CacheGeometry{SizeBytes: 4 * 2 * 128, Ways: 2, LineBytes: 128})
		big := mustNew(arch.CacheGeometry{SizeBytes: 4 * 4 * 128, Ways: 4, LineBytes: 128})
		blocks := make([]arch.BlockAddr, 64)
		for i := range blocks {
			blocks[i] = arch.BlockAddr(rng.Intn(24))
		}
		for _, b := range blocks {
			if !small.Read(b) {
				small.Fill(b)
			}
			if !big.Read(b) {
				big.Fill(b)
			}
			// Inclusion check over the recently touched universe.
			for u := arch.BlockAddr(0); u < 24; u++ {
				if small.Probe(u) && !big.Probe(u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func mustNew(g arch.CacheGeometry) *Cache {
	c, err := New(g)
	if err != nil {
		panic(err)
	}
	return c
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(arch.CacheGeometry{SizeBytes: 100, Ways: 3, LineBytes: 128}); err == nil {
		t.Error("bad geometry accepted")
	}
}

func TestTableIGeometries(t *testing.T) {
	cfg := arch.Default()
	l1, err := New(cfg.L1)
	if err != nil {
		t.Fatalf("L1: %v", err)
	}
	if l1.Sets() != 32 || l1.Ways() != 4 {
		t.Errorf("L1 = %d sets × %d ways, want 32×4", l1.Sets(), l1.Ways())
	}
	l2, err := New(cfg.L2)
	if err != nil {
		t.Fatalf("L2: %v", err)
	}
	if l2.Sets() != 128 || l2.Ways() != 16 {
		t.Errorf("L2 bank = %d sets × %d ways, want 128×16", l2.Sets(), l2.Ways())
	}
}

func TestMSHRMergeAndComplete(t *testing.T) {
	m, err := NewMSHR[uint64](2)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Allocate(10, 1); got != MSHRNew {
		t.Fatalf("first allocate = %v, want new", got)
	}
	if got := m.Allocate(10, 2); got != MSHRMerged {
		t.Fatalf("second allocate = %v, want merged", got)
	}
	if got := m.Allocate(20, 3); got != MSHRNew {
		t.Fatalf("other block = %v, want new", got)
	}
	if got := m.Allocate(30, 4); got != MSHRFull {
		t.Fatalf("over capacity = %v, want full", got)
	}
	if m.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", m.InUse())
	}
	waiters := m.Complete(10)
	if len(waiters) != 2 || waiters[0] != 1 || waiters[1] != 2 {
		t.Fatalf("Complete = %v, want [1 2]", waiters)
	}
	if m.InUse() != 1 {
		t.Fatalf("InUse after Complete = %d, want 1", m.InUse())
	}
	if got := m.Allocate(30, 4); got != MSHRNew {
		t.Fatalf("allocate after free = %v, want new", got)
	}
	if m.Complete(99) != nil {
		t.Fatal("completing unknown block returned waiters")
	}
	if m.Complete(10) != nil {
		t.Fatal("completing a released block returned waiters")
	}
}

func TestMSHRReset(t *testing.T) {
	m, err := NewMSHR[uint64](4)
	if err != nil {
		t.Fatal(err)
	}
	m.Allocate(1, 1)
	m.Allocate(2, 2)
	m.Reset()
	if m.InUse() != 0 {
		t.Fatalf("InUse after Reset = %d, want 0", m.InUse())
	}
}

func TestMSHRRejectsBadCapacity(t *testing.T) {
	if _, err := NewMSHR[uint64](0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func BenchmarkCacheReadHit(b *testing.B) {
	c := mustNew(arch.Default().L1)
	c.Fill(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(0)
	}
}

func BenchmarkCacheReadMissFill(b *testing.B) {
	c := mustNew(arch.Default().L1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := arch.BlockAddr(i)
		if !c.Read(blk) {
			c.Fill(blk)
		}
	}
}
