// Package cache implements the set-associative tag arrays used for both the
// per-SM L1 data caches and the per-channel L2 banks of the simulated GPU,
// plus the MSHR (miss status holding register) table that merges outstanding
// misses. Data values live in device memory (internal/mem); caches model
// timing-relevant state only: tags, LRU order, dirty bits.
package cache

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

// Cache is one set-associative tag array with true-LRU replacement. It is
// not safe for concurrent use; the timing engine is single-threaded.
type Cache struct {
	sets    int
	ways    int
	setMask uint64
	lines   []line // sets*ways, set-major
	tick    uint64

	// Stats accumulate across accesses until Reset.
	Stats Stats
}

type line struct {
	tag     arch.BlockAddr
	valid   bool
	dirty   bool
	lastUse uint64
}

// Stats counts cache events.
type Stats struct {
	// Reads, ReadMisses count lookup traffic.
	Reads      uint64
	ReadMisses uint64
	// Writes, WriteMisses count write lookups.
	Writes      uint64
	WriteMisses uint64
	// Fills counts line insertions; Evictions counts valid lines displaced;
	// DirtyEvictions counts write-backs those evictions generated.
	Fills          uint64
	Evictions      uint64
	DirtyEvictions uint64
}

// Add accumulates other into s field by field. Aggregators (the timing
// engine's per-kernel rollup, the telemetry snapshotter) use it to merge
// per-SM and per-bank counters without hand-written loops.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.ReadMisses += other.ReadMisses
	s.Writes += other.Writes
	s.WriteMisses += other.WriteMisses
	s.Fills += other.Fills
	s.Evictions += other.Evictions
	s.DirtyEvictions += other.DirtyEvictions
}

// ReadHitRate returns the fraction of read lookups that hit.
func (s Stats) ReadHitRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.Reads-s.ReadMisses) / float64(s.Reads)
}

// New builds a cache from the geometry.
func New(g arch.CacheGeometry) (*Cache, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	sets := g.Sets()
	return &Cache{
		sets:    sets,
		ways:    g.Ways,
		setMask: uint64(sets - 1),
		lines:   make([]line, sets*g.Ways),
	}, nil
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) set(b arch.BlockAddr) []line {
	s := int(uint64(b) & c.setMask)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// Read looks the block up, updating LRU state and statistics. It returns
// true on hit. A miss does not allocate; call Fill when the line returns.
func (c *Cache) Read(b arch.BlockAddr) bool {
	c.tick++
	c.Stats.Reads++
	set := c.set(b)
	for i := range set {
		if set[i].valid && set[i].tag == b {
			set[i].lastUse = c.tick
			return true
		}
	}
	c.Stats.ReadMisses++
	return false
}

// Probe reports whether the block is resident without touching LRU state or
// statistics.
func (c *Cache) Probe(b arch.BlockAddr) bool {
	set := c.set(b)
	for i := range set {
		if set[i].valid && set[i].tag == b {
			return true
		}
	}
	return false
}

// Write looks the block up for a store. On hit the line is marked dirty and
// true is returned. On miss nothing is allocated (no-write-allocate, the
// GPU L1/L2 store policy modelled here) and false is returned; the store
// proceeds to the next level.
func (c *Cache) Write(b arch.BlockAddr) bool {
	c.tick++
	c.Stats.Writes++
	set := c.set(b)
	for i := range set {
		if set[i].valid && set[i].tag == b {
			set[i].lastUse = c.tick
			set[i].dirty = true
			return true
		}
	}
	c.Stats.WriteMisses++
	return false
}

// Eviction describes the line displaced by a Fill.
type Eviction struct {
	// Block is the displaced line.
	Block arch.BlockAddr
	// Dirty reports whether a write-back is required.
	Dirty bool
}

// Fill inserts the block, evicting the LRU way if the set is full. It
// returns the eviction, if any. Filling an already-resident block only
// refreshes its LRU position.
func (c *Cache) Fill(b arch.BlockAddr) (Eviction, bool) {
	c.tick++
	c.Stats.Fills++
	set := c.set(b)
	// One pass finds a resident copy, the first invalid way (preferred
	// outright) and the least recently used valid way.
	invalid, lru := -1, -1
	for i := range set {
		switch {
		case !set[i].valid:
			if invalid < 0 {
				invalid = i
			}
		case set[i].tag == b:
			set[i].lastUse = c.tick
			return Eviction{}, false
		case lru < 0 || set[i].lastUse < set[lru].lastUse:
			lru = i
		}
	}
	if invalid >= 0 {
		set[invalid] = line{tag: b, valid: true, lastUse: c.tick}
		return Eviction{}, false
	}
	ev := Eviction{Block: set[lru].tag, Dirty: set[lru].dirty}
	c.Stats.Evictions++
	if ev.Dirty {
		c.Stats.DirtyEvictions++
	}
	set[lru] = line{tag: b, valid: true, lastUse: c.tick}
	return ev, true
}

// InvalidateAll flushes every line — the L1 behaviour at kernel boundaries.
// Dirty lines are dropped (GPU L1s are write-through, so nothing is lost).
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
}

// ResetStats zeroes the statistics without touching cache contents.
func (c *Cache) ResetStats() { c.Stats = Stats{} }
