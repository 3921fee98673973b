package cache

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

// MSHR is a miss status holding register table: it tracks blocks with an
// outstanding fill and merges subsequent misses to the same block, so one
// memory request serves every waiting consumer. The table has a fixed number
// of entries; when full, new misses must stall — the structural hazard that
// bounds memory-level parallelism per SM.
//
// The table is generic over its waiter payload so consumers attach whatever
// they need to a miss without an indirection table: the timing engine stores
// generation-tagged copy-group references directly, and SM ids for the L2
// banks' in-flight fills. The live entries' block tags are packed at the
// front of one array, so a lookup scans only live 8-byte tags, with no
// validity flag to test — at hardware-realistic capacities (tens of entries)
// that is faster than a map. Each entry's waiter list sits at the same index
// of a parallel array; the lists past the live entries are the free slots,
// the most recently freed first, and are recycled in place, which keeps the
// steady state allocation-free.
type MSHR[T any] struct {
	// tags holds the live entries' blocks: entry i waits on tags[i].
	tags []arch.BlockAddr
	// waiters[i] lists entry i's waiters in allocation order; the lists at
	// len(tags) and beyond belong to no entry.
	waiters  [][]T
	capacity int
}

// The waiter lists NewMSHR pre-sizes: one list of waitersPresize waiters
// for each of the first presizeEntries entries. A list of an L2 bank's
// fill table never grows past its pre-size, since each SM waits on a fill
// at most once (Table I has 15 SMs). A table only grows past them — a
// list on deeper merging, the table on more outstanding entries — and
// then keeps its high-water capacity.
const (
	waitersPresize = 16
	presizeEntries = 64
)

// NewMSHR builds a table with the given entry budget.
func NewMSHR[T any](capacity int) (*MSHR[T], error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: MSHR capacity must be positive, got %d", capacity)
	}
	n := min(capacity, presizeEntries)
	m := &MSHR[T]{tags: make([]arch.BlockAddr, 0, n), waiters: make([][]T, n), capacity: capacity}
	// Pre-size the waiter lists, from one backing array, so steady-state
	// Allocate calls never touch the heap.
	backing := make([]T, n*waitersPresize)
	for i := range m.waiters {
		m.waiters[i] = backing[i*waitersPresize : i*waitersPresize : (i+1)*waitersPresize]
	}
	return m, nil
}

// Outcome of an MSHR allocation attempt.
type MSHROutcome int

// Allocation outcomes.
const (
	// MSHRNew means a fresh entry was allocated: the caller must issue the
	// memory request.
	MSHRNew MSHROutcome = iota + 1
	// MSHRMerged means an entry for the block already existed: the request
	// was queued behind the in-flight fill and no new memory request is
	// needed.
	MSHRMerged
	// MSHRFull means no entry was available: the requester must stall and
	// retry.
	MSHRFull
)

// String renders the outcome.
func (o MSHROutcome) String() string {
	switch o {
	case MSHRNew:
		return "new"
	case MSHRMerged:
		return "merged"
	case MSHRFull:
		return "full"
	default:
		return fmt.Sprintf("mshroutcome(%d)", int(o))
	}
}

// Allocate registers payload as waiting on block b.
func (m *MSHR[T]) Allocate(b arch.BlockAddr, payload T) MSHROutcome {
	for i, tag := range m.tags {
		if tag == b {
			m.waiters[i] = append(m.waiters[i], payload)
			return MSHRMerged
		}
	}
	n := len(m.tags)
	if n == m.capacity {
		return MSHRFull
	}
	if n == len(m.waiters) {
		m.waiters = append(m.waiters, make([]T, 0, waitersPresize))
	}
	m.tags = append(m.tags, b)
	m.waiters[n] = append(m.waiters[n][:0], payload)
	return MSHRNew
}

// Complete releases the entry for block b, returning every waiter in
// allocation order. Completing an unknown block returns nil. The returned
// slice aliases the freed slot's storage: it is valid until a subsequent
// Allocate reuses the slot, so callers must consume it before allocating.
func (m *MSHR[T]) Complete(b arch.BlockAddr) []T {
	for i, tag := range m.tags {
		if tag == b {
			// The last live entry takes the freed place, and the freed
			// list becomes the first free slot.
			last := len(m.tags) - 1
			m.tags[i] = m.tags[last]
			m.tags = m.tags[:last]
			m.waiters[i], m.waiters[last] = m.waiters[last], m.waiters[i]
			return m.waiters[last]
		}
	}
	return nil
}

// InUse returns the number of occupied entries.
func (m *MSHR[T]) InUse() int { return len(m.tags) }

// Capacity returns the entry budget.
func (m *MSHR[T]) Capacity() int { return m.capacity }

// Reset drops every entry, keeping the waiter lists for reuse.
func (m *MSHR[T]) Reset() { m.tags = m.tags[:0] }
