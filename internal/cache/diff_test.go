package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

// refMSHR is the obviously correct MSHR: a map from block to its waiters
// in allocation order, bounded by a capacity.
type refMSHR[T any] struct {
	entries  map[arch.BlockAddr][]T
	capacity int
}

func (r *refMSHR[T]) allocate(b arch.BlockAddr, payload T) MSHROutcome {
	if ws, ok := r.entries[b]; ok {
		r.entries[b] = append(ws, payload)
		return MSHRMerged
	}
	if len(r.entries) == r.capacity {
		return MSHRFull
	}
	r.entries[b] = []T{payload}
	return MSHRNew
}

func (r *refMSHR[T]) complete(b arch.BlockAddr) []T {
	ws := r.entries[b]
	delete(r.entries, b)
	return ws
}

// TestMSHRRandomizedAgainstReference drives random Allocate, Complete and
// Reset sequences through the packed table and the reference map, in the
// shapes the timing engine uses: an L1 table of 32 entries keyed by
// copy-group references, and a channel's fill-waiter table of SM ids,
// sized to every SM's L1 entries. Outcomes, waiter lists and their order,
// and the occupancy must agree after every operation. Each Complete's
// waiters are checked before the next Allocate, as the aliasing contract
// requires.
func TestMSHRRandomizedAgainstReference(t *testing.T) {
	t.Run("l1", func(t *testing.T) { mshrDifferential[uint64](t, 32) })
	t.Run("fills", func(t *testing.T) { mshrDifferential[int32](t, 15*32) })
}

// mshrDifferential runs the comparison on a table of the given capacity.
// Seven in ten operations allocate, over 5/3 as many blocks as entries,
// which keeps the table near full: every outcome occurs.
func mshrDifferential[T uint64 | int32](t *testing.T, capacity int) {
	blocks := capacity * 5 / 3
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewMSHR[T](capacity)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refMSHR[T]{entries: map[arch.BlockAddr][]T{}, capacity: capacity}
		seen := map[MSHROutcome]int{}
		for step := 0; step < 50000; step++ {
			b := arch.BlockAddr(rng.Intn(blocks))
			op := fmt.Sprintf("seed %d step %d", seed, step)
			switch r := rng.Intn(10000); {
			case r == 0:
				m.Reset()
				clear(ref.entries)
			case r < 7000:
				p := T(rng.Intn(1 << 20))
				got, want := m.Allocate(b, p), ref.allocate(b, p)
				if got != want {
					t.Fatalf("%s: Allocate(%d) = %v, reference %v", op, b, got, want)
				}
				seen[got]++
			default:
				got, want := m.Complete(b), ref.complete(b)
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("%s: Complete(%d) = %v, reference %v", op, b, got, want)
				}
			}
			if m.InUse() != len(ref.entries) || m.Capacity() != capacity {
				t.Fatalf("%s: %d of %d entries in use, reference %d of %d", op, m.InUse(), m.Capacity(), len(ref.entries), capacity)
			}
		}
		if seen[MSHRNew] == 0 || seen[MSHRMerged] == 0 || seen[MSHRFull] == 0 {
			t.Fatalf("seed %d: outcomes %v; want every outcome exercised", seed, seen)
		}
	}
}

// refLine is one line of the reference cache.
type refLine struct {
	tag   arch.BlockAddr
	dirty bool
}

// refCache is the obviously correct true-LRU cache: each set is a list of
// its resident lines, most recently used first.
type refCache struct {
	sets  [][]refLine
	ways  int
	stats Stats
}

func (r *refCache) set(b arch.BlockAddr) *[]refLine { return &r.sets[int(b)%len(r.sets)] }

// touch moves line i of set to the front and returns it.
func touch(set []refLine, i int) {
	l := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = l
}

func (r *refCache) find(b arch.BlockAddr) ([]refLine, int) {
	set := *r.set(b)
	for i, l := range set {
		if l.tag == b {
			return set, i
		}
	}
	return set, -1
}

func (r *refCache) read(b arch.BlockAddr) bool {
	r.stats.Reads++
	set, i := r.find(b)
	if i < 0 {
		r.stats.ReadMisses++
		return false
	}
	touch(set, i)
	return true
}

func (r *refCache) write(b arch.BlockAddr) bool {
	r.stats.Writes++
	set, i := r.find(b)
	if i < 0 {
		r.stats.WriteMisses++
		return false
	}
	set[i].dirty = true
	touch(set, i)
	return true
}

func (r *refCache) fill(b arch.BlockAddr) (Eviction, bool) {
	r.stats.Fills++
	set, i := r.find(b)
	if i >= 0 {
		touch(set, i)
		return Eviction{}, false
	}
	var ev Eviction
	had := false
	if len(set) == r.ways {
		lru := set[len(set)-1]
		ev, had = Eviction{Block: lru.tag, Dirty: lru.dirty}, true
		r.stats.Evictions++
		if lru.dirty {
			r.stats.DirtyEvictions++
		}
		set = set[:len(set)-1]
	}
	*r.set(b) = append([]refLine{{tag: b}}, set...)
	return ev, had
}

// TestCacheRandomizedAgainstReference drives random Read, Write, Fill,
// Probe and InvalidateAll sequences through the tag array and the
// reference true-LRU model, on a small cache and on both Table I
// geometries. Every hit, every eviction (block and dirtiness) and the
// statistics must agree after every operation.
func TestCacheRandomizedAgainstReference(t *testing.T) {
	for _, g := range []arch.CacheGeometry{
		{SizeBytes: 4 * 2 * 128, Ways: 2, LineBytes: 128},
		arch.Default().L1,
		arch.Default().L2,
	} {
		t.Run(fmt.Sprintf("%dB-%dway", g.SizeBytes, g.Ways), func(t *testing.T) {
			c := mustNew(g)
			ref := &refCache{sets: make([][]refLine, c.Sets()), ways: c.Ways()}
			rng := rand.New(rand.NewSource(int64(g.SizeBytes)))
			// Twice the blocks the cache holds: sets fill, evict and refill.
			blocks := 2 * c.Sets() * c.Ways()
			for step := 0; step < 200000; step++ {
				b := arch.BlockAddr(rng.Intn(blocks))
				switch r := rng.Intn(1000); {
				case r == 0:
					c.InvalidateAll()
					for i := range ref.sets {
						ref.sets[i] = ref.sets[i][:0]
					}
				case r < 350:
					if got, want := c.Read(b), ref.read(b); got != want {
						t.Fatalf("step %d: Read(%d) = %v, reference %v", step, b, got, want)
					}
				case r < 500:
					if got, want := c.Write(b), ref.write(b); got != want {
						t.Fatalf("step %d: Write(%d) = %v, reference %v", step, b, got, want)
					}
				case r < 800:
					ev, had := c.Fill(b)
					wantEv, wantHad := ref.fill(b)
					if ev != wantEv || had != wantHad {
						t.Fatalf("step %d: Fill(%d) = %+v, %v; reference %+v, %v", step, b, ev, had, wantEv, wantHad)
					}
				default:
					_, i := ref.find(b)
					if got := c.Probe(b); got != (i >= 0) {
						t.Fatalf("step %d: Probe(%d) = %v, reference %v", step, b, got, i >= 0)
					}
				}
				if c.Stats != ref.stats {
					t.Fatalf("step %d: stats %+v, reference %+v", step, c.Stats, ref.stats)
				}
			}
		})
	}
}
