// Package store is the simulator's content-addressed result store: the
// serving fast path that lets repeated work be paid for once. Results are
// addressed by a canonical hash of everything that determines them (see
// Key), served from a byte-budgeted in-memory LRU tier, optionally
// persisted in a corruption-tolerant disk tier so separate invocations
// warm-start from each other, and computed at most once per key among
// concurrent callers by a singleflight coalescer.
//
// Determinism contract: the store only ever returns a value that the keyed
// computation produced (this process or an earlier one). Because every
// computation in this repository is deterministic in its key fields,
// serving from the store is byte-identical to recomputing — the test suite
// gates on exactly that.
package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// DefaultMemBytes is the in-memory tier budget when Config.MemBytes is 0:
// large enough that a full small-scale paper reproduction never evicts,
// small enough to stay a fraction of the workloads it caches.
const DefaultMemBytes = 512 << 20

// defaultEntrySize is the LRU accounting size for entries whose real
// footprint is unknown (no Size estimator and no encoded form).
const defaultEntrySize = 4096

// Config configures a Store.
type Config struct {
	// MemBytes budgets the in-memory tier (0 = DefaultMemBytes).
	MemBytes int64
	// Dir, when non-empty, enables the disk tier rooted there. The
	// directory (and any missing parents) is created on Open.
	Dir string
	// Telemetry, when non-nil, receives the store's hit/miss/eviction and
	// singleflight counters.
	Telemetry *telemetry.Registry
}

// Store is a two-tier content-addressed result store with a singleflight
// front. All methods are safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	mem    *lru
	disk   *diskTier
	flight flightGroup

	memHits, memMisses, evictions      *telemetry.Counter
	diskHits, diskMisses, diskCorrupt  *telemetry.Counter
	computes, flightShared, diskErrors *telemetry.Counter
	memBytes, memEntries               *telemetry.Gauge
}

// Open builds a store. With cfg.Dir set, the disk tier directory is
// created (parents included) so callers can point -store-dir at a path
// that does not exist yet.
func Open(cfg Config) (*Store, error) {
	budget := cfg.MemBytes
	if budget <= 0 {
		budget = DefaultMemBytes
	}
	s := &Store{mem: newLRU(budget)}
	if cfg.Dir != "" {
		d, err := newDiskTier(cfg.Dir)
		if err != nil {
			return nil, err
		}
		s.disk = d
	}
	if reg := cfg.Telemetry; reg != nil {
		s.memHits = reg.Counter("dcrm_store_mem_hits_total",
			"Result-store in-memory tier hits.")
		s.memMisses = reg.Counter("dcrm_store_mem_misses_total",
			"Result-store in-memory tier misses.")
		s.evictions = reg.Counter("dcrm_store_mem_evictions_total",
			"Result-store entries evicted by the in-memory byte budget.")
		s.diskHits = reg.Counter("dcrm_store_disk_hits_total",
			"Result-store disk tier hits.")
		s.diskMisses = reg.Counter("dcrm_store_disk_misses_total",
			"Result-store disk tier misses.")
		s.diskCorrupt = reg.Counter("dcrm_store_disk_corrupt_total",
			"Result-store disk entries dropped as corrupt (treated as misses).")
		s.diskErrors = reg.Counter("dcrm_store_disk_errors_total",
			"Result-store disk write/encode failures (entry served from memory only).")
		s.computes = reg.Counter("dcrm_store_computes_total",
			"Result-store misses that ran the underlying computation.")
		s.flightShared = reg.Counter("dcrm_store_flight_shared_total",
			"Store lookups that joined another caller's in-flight computation.")
		s.memBytes = reg.Gauge("dcrm_store_mem_bytes",
			"Result-store in-memory tier resident bytes.")
		s.memEntries = reg.Gauge("dcrm_store_mem_entries",
			"Result-store in-memory tier resident entries.")
	}
	return s, nil
}

// InFlight reports whether key is currently being computed by some caller.
func (s *Store) InFlight(key Key) bool {
	if s == nil {
		return false
	}
	s.flight.mu.Lock()
	defer s.flight.mu.Unlock()
	_, ok := s.flight.calls[key.Hash()]
	return ok
}

// Contains reports whether key is resident in the in-memory tier.
func (s *Store) Contains(key Key) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.mem.items[key.Hash()]
	return ok
}

func inc(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}

func add(c *telemetry.Counter, n uint64) {
	if c != nil && n > 0 {
		c.Add(n)
	}
}

// memGet is the locked memory-tier lookup.
func (s *Store) memGet(hash string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.get(hash)
}

// memPut admits a value and publishes the tier gauges.
func (s *Store) memPut(hash string, v any, size int64) {
	s.mu.Lock()
	evicted := s.mem.put(hash, v, size)
	bytes, entries := s.mem.bytes(), s.mem.len()
	s.mu.Unlock()
	add(s.evictions, uint64(evicted))
	if s.memBytes != nil {
		s.memBytes.Set(float64(bytes))
		s.memEntries.Set(float64(entries))
	}
}

// UpdateSize re-accounts the in-memory entry for key — used by live values
// (checkpoints) whose footprint grows after admission as lazy artifacts
// materialize, so the byte budget reflects what is actually resident.
// Eviction pressure is applied immediately; the updated entry itself is
// never the one evicted. A size above the whole memory budget drops the
// entry (matching admission). Unknown keys and a nil store are no-ops.
func (s *Store) UpdateSize(key Key, size int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	evicted := s.mem.resize(key.Hash(), size)
	bytes, entries := s.mem.bytes(), s.mem.len()
	s.mu.Unlock()
	add(s.evictions, uint64(evicted))
	if s.memBytes != nil {
		s.memBytes.Set(float64(bytes))
		s.memEntries.Set(float64(entries))
	}
}

// Options tunes one Do call.
type Options[T any] struct {
	// Persist round-trips the value through the disk tier (when one is
	// configured) via encoding/gob; T must be gob-encodable (exported
	// fields only, no interface-typed fields). Leave false for live
	// objects that only make sense inside one process.
	Persist bool
	// Size estimates the value's in-memory footprint for LRU accounting.
	// When nil, the encoded size is used for persisted entries and a small
	// default otherwise.
	Size func(T) int64
	// Check, when non-nil, vets a value decoded from the disk tier before
	// it is served. A rejected value is handled like a corrupt entry:
	// counted in dcrm_store_disk_corrupt_total, recomputed once under the
	// singleflight, and overwritten on disk by the fresh value.
	Check func(T) error
}

// Do returns the stored value for key, computing it (at most once among
// concurrent callers) on a miss. A nil store degenerates to calling
// compute directly — the storeless path. Values returned from the store
// are shared; callers must treat them as read-only.
func Do[T any](s *Store, key Key, opt Options[T], compute func() (T, error)) (T, error) {
	var zero T
	if s == nil {
		return compute()
	}
	if v, ok := s.memGet(key.Hash()); ok {
		tv, ok := v.(T)
		if !ok {
			return zero, typeMismatch[T](key, v)
		}
		inc(s.memHits)
		return tv, nil
	}
	inc(s.memMisses)
	admit := func(tv T, encodedSize int64) {
		size := encodedSize
		if opt.Size != nil {
			size = opt.Size(tv)
		}
		if size < 0 {
			size = defaultEntrySize
		}
		s.memPut(key.Hash(), tv, size)
	}
	v, err, shared := s.flight.do(key.Hash(), func() (any, error) {
		// A caller that lost the admission race re-checks memory before
		// paying for disk or compute.
		if v, ok := s.memGet(key.Hash()); ok {
			if _, isT := v.(T); !isT {
				return nil, typeMismatch[T](key, v)
			}
			return v, nil
		}
		if s.disk != nil && opt.Persist {
			if tv, size, ok := diskLoad(s, key, opt.Check); ok {
				admit(tv, size)
				return tv, nil
			}
		}
		inc(s.computes)
		tv, err := compute()
		if err != nil {
			return nil, err
		}
		size := int64(-1)
		if s.disk != nil && opt.Persist {
			size = s.diskStore(key, tv)
		}
		admit(tv, size)
		return tv, nil
	})
	if shared {
		inc(s.flightShared)
	}
	if err != nil {
		return zero, err
	}
	tv, ok := v.(T)
	if !ok {
		return zero, typeMismatch[T](key, v)
	}
	return tv, nil
}

// typeMismatch reports that two call sites hashed different value types to
// one key — a programming error; surface it rather than serving a wrong
// type.
func typeMismatch[T any](key Key, got any) error {
	var zero T
	return fmt.Errorf("store: key %q holds %T, caller wants %T", key.String(), got, zero)
}

// diskLoad reads and decodes a persisted entry; any corruption (including
// a payload that no longer decodes as T, or a value check rejects) counts
// as a miss.
func diskLoad[T any](s *Store, key Key, check func(T) error) (tv T, size int64, ok bool) {
	payload, found, corrupt := s.disk.read(key.Hash())
	if corrupt {
		inc(s.diskCorrupt)
	}
	if !found {
		inc(s.diskMisses)
		return tv, 0, false
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&tv); err != nil || check != nil && check(tv) != nil {
		var zero T
		inc(s.diskCorrupt)
		inc(s.diskMisses)
		return zero, 0, false
	}
	inc(s.diskHits)
	return tv, int64(len(payload)), true
}

// diskStore encodes and persists a computed value (best effort: a disk
// failure degrades to memory-only serving). Returns the encoded size, or
// -1 when encoding failed.
func (s *Store) diskStore(key Key, v any) int64 {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		inc(s.diskErrors)
		return -1
	}
	if err := s.disk.write(key.Hash(), buf.Bytes()); err != nil {
		inc(s.diskErrors)
	}
	return int64(buf.Len())
}
