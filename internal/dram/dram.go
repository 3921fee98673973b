// Package dram models one GDDR5 memory controller per L2 channel with
// FR-FCFS (first-ready, first-come-first-served) scheduling: among queued
// requests the controller prefers row-buffer hits, falling back to the
// oldest request, with a bypass cap so row streaks cannot starve older
// row-miss requests. Timing follows the Table I parameters (tRCD/tRP/tCL
// and burst occupancy), converted to core-clock cycles so the whole
// simulator advances on one clock.
package dram

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

// rowBytes is the DRAM row-buffer size; 2 KB rows hold 16 blocks of 128 B.
const rowBytes = 2048

// maxRowHitBypass bounds how many younger row-hit requests may be served
// ahead of the oldest queued request before fairness forces it through.
const maxRowHitBypass = 16

// Request is one 128 B memory transfer.
type Request struct {
	// Block is the target data memory block.
	Block arch.BlockAddr
	// ID is an opaque handle returned with the completion.
	ID uint64
	// Write distinguishes write-backs from fills.
	Write bool
}

// Completion reports a finished request.
type Completion struct {
	// Req is the original request.
	Req Request
	// At is the core-clock cycle the data transfer finished.
	At int64
}

// pending is one queued request with its (bank, row) decoded at Enqueue.
type pending struct {
	req     Request
	arrival int64
	row     int64
	bank    int
}

type bank struct {
	openRow   int64 // -1 when closed
	busyUntil int64
}

// Controller is one channel's memory controller. Not safe for concurrent
// use.
type Controller struct {
	banks []bank
	// queue holds the waiting requests oldest first: Enqueue appends and
	// service splices an entry out, so queue order is Enqueue order.
	queue     []pending
	busFree   int64
	numCh     int
	bypassRun int

	// Timing in core cycles.
	tRCD, tRP, tCL, tBurst int64

	// Stats accumulate until reset.
	Stats Stats
}

// Stats counts controller events.
type Stats struct {
	// Requests served, split by row-buffer outcome.
	RowHits      uint64
	RowMisses    uint64 // row conflict: precharge + activate
	RowEmpty     uint64 // bank closed: activate only
	TotalLatency uint64 // sum of (completion - arrival) in core cycles
	Served       uint64
}

// Add accumulates other into s field by field, merging per-channel
// controller counters into an aggregate.
func (s *Stats) Add(other Stats) {
	s.RowHits += other.RowHits
	s.RowMisses += other.RowMisses
	s.RowEmpty += other.RowEmpty
	s.TotalLatency += other.TotalLatency
	s.Served += other.Served
}

// AvgLatency returns mean request latency in core cycles.
func (s Stats) AvgLatency() float64 {
	if s.Served == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Served)
}

// RowHitRate returns the fraction of served requests that hit the row
// buffer.
func (s Stats) RowHitRate() float64 {
	if s.Served == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.Served)
}

// NewController builds the controller for one channel of the configuration.
func NewController(cfg arch.Config) (*Controller, error) {
	if cfg.DRAMBanksPerChannel <= 0 {
		return nil, fmt.Errorf("dram: banks per channel must be positive, got %d", cfg.DRAMBanksPerChannel)
	}
	if cfg.MemClockMHz <= 0 || cfg.CoreClockMHz <= 0 {
		return nil, fmt.Errorf("dram: clocks must be positive (core %d, mem %d)", cfg.CoreClockMHz, cfg.MemClockMHz)
	}
	scale := func(memCycles int) int64 {
		// Convert memory cycles to core cycles, rounding up.
		return int64((memCycles*cfg.CoreClockMHz + cfg.MemClockMHz - 1) / cfg.MemClockMHz)
	}
	banks := make([]bank, cfg.DRAMBanksPerChannel)
	for i := range banks {
		banks[i].openRow = -1
	}
	return &Controller{
		banks: banks,
		// Pre-size the request queue so steady-state Enqueue traffic never
		// grows the backing array; depth only exceeds this under extreme
		// write bursts, and the queue then keeps its high-water capacity.
		queue:  make([]pending, 0, 512),
		numCh:  cfg.NumMemChannels,
		tRCD:   scale(cfg.DRAMTiming.TRCD),
		tRP:    scale(cfg.DRAMTiming.TRP),
		tCL:    scale(cfg.DRAMTiming.TCL),
		tBurst: scale(cfg.DRAMTiming.TBurst),
	}, nil
}

// bankRow maps a block to (bank, row) within this channel. Consecutive
// blocks on a channel stripe across banks; rows group blocksPerRow blocks.
func (c *Controller) bankRow(b arch.BlockAddr) (int, int64) {
	local := uint64(b) / uint64(c.numCh)
	bk := int(local % uint64(len(c.banks)))
	blocksPerRow := uint64(rowBytes / arch.BlockBytes)
	row := int64(local / uint64(len(c.banks)) / blocksPerRow)
	return bk, row
}

// Enqueue adds a request arriving at the given core cycle.
func (c *Controller) Enqueue(r Request, now int64) {
	bk, row := c.bankRow(r.Block)
	c.queue = append(c.queue, pending{req: r, arrival: now, bank: bk, row: row})
}

// QueueLen returns the number of waiting requests.
func (c *Controller) QueueLen() int { return len(c.queue) }

// Busy reports whether the controller still has queued work or in-flight
// bus activity past the given cycle.
func (c *Controller) Busy(now int64) bool {
	return len(c.queue) > 0 || c.busFree > now
}

// Advance serves requests whose service can start at or before `now`,
// returning their completions (possibly completing after now; the caller
// delivers them when due). FR-FCFS: row-hit first, oldest otherwise.
func (c *Controller) Advance(now int64) []Completion {
	return c.AdvanceAppend(nil, now)
}

// AdvanceAppend is Advance with caller-supplied storage: completions are
// appended to dst and the extended slice returned. The timing engine passes
// a per-engine scratch buffer so the steady-state replay loop never
// allocates here.
func (c *Controller) AdvanceAppend(dst []Completion, now int64) []Completion {
	for len(c.queue) > 0 {
		comp, ok := c.scheduleOne(now)
		if !ok {
			break
		}
		dst = append(dst, comp)
	}
	return dst
}

// scheduleOne picks and serves a single request if service can start by
// `now`.
func (c *Controller) scheduleOne(now int64) (Completion, bool) {
	i, start, ok := c.pick(now)
	if !ok {
		return Completion{}, false
	}
	p := c.queue[i]
	c.queue = append(c.queue[:i], c.queue[i+1:]...)
	return c.serve(p, start), true
}

// pick applies FR-FCFS to the requests whose service can start by `now`:
// the oldest one, unless a younger row hit may bypass it. It returns the
// chosen queue index and its service start. The queue is oldest first, so
// the first eligible entry is the oldest and the first eligible row hit is
// the one to prefer; the scan stops as soon as the choice is settled.
func (c *Controller) pick(now int64) (int, int64, bool) {
	oldest := -1
	var oldestStart int64
	for i := range c.queue {
		p := &c.queue[i]
		if p.arrival > now {
			continue
		}
		start := c.startTime(p)
		if start > now {
			continue
		}
		hit := c.banks[p.bank].openRow == p.row
		if oldest == -1 {
			if hit || c.bypassRun >= maxRowHitBypass {
				// The oldest request goes next whatever follows it.
				c.bypassRun = 0
				return i, start, true
			}
			oldest, oldestStart = i, start
			continue
		}
		if hit {
			c.bypassRun++
			return i, start, true
		}
	}
	if oldest == -1 {
		return 0, 0, false
	}
	c.bypassRun = 0
	return oldest, oldestStart, true
}

// startTime is the earliest cycle p could begin service: its arrival, or
// later while its bank is still busy.
func (c *Controller) startTime(p *pending) int64 {
	return max(p.arrival, c.banks[p.bank].busyUntil)
}

// serve performs p's bank access from cycle start and its data burst on
// the channel bus, and returns the completion.
func (c *Controller) serve(p pending, start int64) Completion {
	b := &c.banks[p.bank]
	var access int64
	switch {
	case b.openRow == p.row:
		access = c.tCL
		c.Stats.RowHits++
	case b.openRow == -1:
		access = c.tRCD + c.tCL
		c.Stats.RowEmpty++
	default:
		access = c.tRP + c.tRCD + c.tCL
		c.Stats.RowMisses++
	}
	// The bank access (activate/precharge/CAS) proceeds in parallel with
	// other banks; only the data burst serializes on the channel bus.
	burstStart := start + access
	if c.busFree > burstStart {
		burstStart = c.busFree
	}
	finish := burstStart + c.tBurst
	b.openRow = p.row
	b.busyUntil = finish
	c.busFree = finish
	c.Stats.Served++
	c.Stats.TotalLatency += uint64(finish - p.arrival)
	return Completion{Req: p.req, At: finish}
}

// NextStartTime returns the earliest cycle at which any queued request
// could begin service (considering arrival and bank occupancy), or -1 when
// the queue is empty. The timing engine uses it to schedule its next
// scheduling attempt without polling every cycle.
func (c *Controller) NextStartTime() int64 {
	next := int64(-1)
	for i := range c.queue {
		if start := c.startTime(&c.queue[i]); next == -1 || start < next {
			next = start
		}
	}
	return next
}

// ResetStats zeroes statistics.
func (c *Controller) ResetStats() { c.Stats = Stats{} }
