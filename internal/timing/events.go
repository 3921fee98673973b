// Package timing is the cycle-level GPU timing simulator. It replays the
// per-warp instruction traces captured by internal/simt through a model of
// the full memory path — per-SM L1 caches with MSHRs, a crossbar, banked L2,
// and FR-FCFS DRAM controllers — under greedy-then-oldest warp scheduling,
// and reports cycles and per-level traffic. The replication schemes hook in
// through a ProtectionPlan: protected loads that miss in L1 fan out into
// copy transactions, complete lazily (detection) or after all copies arrive
// (correction), and occupy entries of the bounded pending-compare buffer.
//
// An Engine is single-threaded, but it treats the traces it replays as
// strictly read-only, so any number of engines may replay the same
// captured traces concurrently — the experiments package relies on this
// to fan its (scheme, level) sweeps over a worker pool.
//
// # Event engine
//
// The scheduler is allocation-free on the hot path. Events are a tagged
// union (kind + small payload fields) dispatched through a switch in the
// run loop, not heap-allocated closures, and they pop in (cycle, sequence)
// order: earliest cycle first, scheduling order breaking ties. Two tiers
// back that order without boxing anything through an interface:
//
//   - a timing wheel of wheelSpan per-cycle buckets covering the cycles
//     [base, base+wheelSpan). Each bucket is a FIFO linked by index through
//     one pooled event slab, and an occupancy bitmap finds the next
//     non-empty cycle, so scheduling and popping are O(1). Every memory
//     latency of the modelled machine is far shorter than the span, so
//     nearly every event takes this path; and
//   - a binary min-heap of event values as the overflow tier, for events
//     due outside the wheel's span.
//
// Within the span a bucket holds exactly one cycle, and events are
// appended in sequence order, so a bucket's head is its earliest event.
// The pop path compares the wheel's head against the heap's top under the
// same (at, seq) key, which keeps the global order identical to a single
// ordered heap even when one cycle's events are split across the tiers
// (scheduled into the heap while far ahead, into the wheel once near). The
// base advances with every pop, and an empty wheel re-bases at the current
// cycle, so work resumed after an idle gap lands in the wheel again.
//
// # Replay windows
//
// Components interact only through timestamped messages: L2 requests,
// fill responses, and CTA requests and grants. Every message's hop
// latency is at least the lookahead L = max(1, InterconnectLatency/2).
// Replay advances on a fixed window grid start + k·L anchored at the
// kernel start, skipping empty windows. At each window start the engine
// commits every pending message in (sendAt, srcKey, srcSeq) order — send
// cycle, sending component, send order — reserving the receiver's port
// at commit time, and then processes the window's events. The grid and
// the commit order are part of the timing model: the golden statistics
// in internal/experiments were recorded against them.
//
// # Fault-injection hook
//
// One observation point connects the engine to the fault models in
// internal/fault. Engine.Blocks, a BlockLog, records per block the L1
// misses (replica copies included) and the last store's L2-bank commit
// cycle. One instrumented replay of a protection configuration yields
// both: the miss histogram weights Fig. 9's block selection, and the
// store-commit timeline (fault.Timeline) lets the transient-SEU model
// decide, at injection time, whether a later store overwrites an injected
// flip. The flip itself is applied to the functional memory image, never
// inside a replay. The log defaults to nil, which records nothing; attach
// it only to instrumented replays, never to runs whose statistics feed the
// golden determinism gates.
package timing

import (
	"math/bits"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

// eventKind tags which engine action an event performs when popped.
type eventKind uint8

// Event kinds. Each corresponds to one closure shape of the original
// engine; the dispatch switch in Engine.dispatch reproduces the closure
// bodies exactly, including the staleness guards for superseded SM-step
// and DRAM-pump markers.
const (
	evNone eventKind = iota
	// evSMStep runs an SM's issue loop if the event is still the SM's
	// current step marker (stepScheduledAt == now).
	evSMStep
	// evGroupArrive delivers one copy of a load's block to its copy-group
	// (the L1-hit latency path); the generation tag guards against a
	// recycled group.
	evGroupArrive
	// evL2Access performs a bank lookup after crossbar traversal.
	evL2Access
	// evSMReceive fills an SM's L1 and completes the MSHR waiters.
	evSMReceive
	// evDRAMComplete fills L2 with DRAM data and fans it out to waiters.
	evDRAMComplete
	// evDRAMPump re-runs a DRAM channel's scheduler if the event is still
	// the channel's current pump marker (dramPumpAt[ch] == now).
	evDRAMPump
	// evCTADispatch is the CTA dispatcher's receipt of an SM's request for
	// a replacement CTA (msgCTAReq): it pops queued CTAs, skipping ones
	// with no live warps, and answers with a grant message.
	evCTADispatch
	// evCTAInstall is an SM's receipt of a CTA grant (msgCTAGrant): the
	// CTA's warps are installed from the slab and the issue loop is woken.
	evCTAInstall
)

// event is one scheduled action: an ordering key plus a tagged payload.
// It is a value type — events move through the wheel slab and the overflow
// heap by copy and never escape to the Go heap.
type event struct {
	at   int64
	seq  uint64
	blk  arch.BlockAddr
	g    *copyGroup
	gen  uint32 // copy-group generation at schedule time
	sm   int32
	ch   int32
	cta  int32 // CTA id for evCTAInstall
	kind eventKind
	// write distinguishes store traffic on the L2/DRAM paths.
	write bool
}

// before reports whether a orders strictly before b: earliest cycle first,
// scheduling sequence breaking ties deterministically.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The timing wheel's geometry. wheelSpan is a power of two so a cycle maps
// to its bucket with a mask; it comfortably exceeds the longest scheduling
// distance of a Table I replay (255 cycles).
const (
	wheelSpan  = 512
	wheelMask  = wheelSpan - 1
	wheelWords = wheelSpan / 64 // occupancy bitmap words
)

// slabPresize is the event slab's initial capacity, above the few hundred
// events a replay keeps pending at once, so a fresh engine's first kernel
// does not grow it.
const slabPresize = 1024

// wheelSlot is one slab entry: a scheduled event and the slab index of the
// next event in its bucket.
type wheelSlot struct {
	ev   event
	next int32
}

// scheduler orders events by (at, seq) with a monotonic sequence counter:
// a timing wheel for events due within wheelSpan cycles of its base, and
// an overflow min-heap for the rest. The slab, its free stack and the heap
// are reused across kernels, so the steady state performs no allocation.
type scheduler struct {
	// base is the first cycle the wheel covers: every wheel event is due in
	// [base, base+wheelSpan).
	base int64
	// head and tail are each bucket's first and last slab index; they are
	// meaningful only while the bucket's occupancy bit is set.
	head [wheelSpan]int32
	tail [wheelSpan]int32
	occ  [wheelWords]uint64
	slab []wheelSlot
	free []int32 // recycled slab indices
	// inWheel counts the events in the wheel.
	inWheel int
	heap    []event
	seq     uint64
}

// presize reserves the event slab so the first kernels do not grow it.
func (s *scheduler) presize() {
	s.slab = make([]wheelSlot, 0, slabPresize)
	s.free = make([]int32, 0, slabPresize)
}

// schedule enqueues ev, stamping the next sequence number. now is the
// cycle the engine is currently processing; an empty wheel re-bases there.
func (s *scheduler) schedule(ev event, now int64) {
	ev.seq = s.seq
	s.seq++
	if s.inWheel == 0 {
		s.base = now
	}
	if d := ev.at - s.base; d >= 0 && d < wheelSpan {
		s.pushWheel(ev)
		return
	}
	s.pushHeap(ev)
}

func (s *scheduler) empty() bool { return s.pending() == 0 }

// pending returns the number of scheduled events not yet popped.
func (s *scheduler) pending() int { return s.inWheel + len(s.heap) }

// nextAt returns the cycle of the earliest pending event, or noEvent when
// the scheduler is empty. The windowed replay loop peeks it to decide
// whether the next event still falls inside the current window.
func (s *scheduler) nextAt() int64 {
	next := int64(noEvent)
	if s.inWheel > 0 {
		next = s.slab[s.head[s.firstBucket()]].ev.at
	}
	if len(s.heap) > 0 && s.heap[0].at < next {
		next = s.heap[0].at
	}
	return next
}

// reset drops every pending event and rewinds the sequence counter,
// keeping the backing arrays for reuse.
func (s *scheduler) reset() {
	s.occ = [wheelWords]uint64{}
	s.slab = s.slab[:0]
	s.free = s.free[:0]
	s.inWheel = 0
	s.heap = s.heap[:0]
	s.seq = 0
}

// pop removes and returns the globally earliest event under (at, seq):
// the wheel's head or the heap's top, whichever orders first.
func (s *scheduler) pop() event {
	if s.inWheel > 0 {
		b := s.firstBucket()
		i := s.head[b]
		if len(s.heap) == 0 || before(&s.slab[i].ev, &s.heap[0]) {
			ev := s.slab[i].ev
			if i == s.tail[b] {
				s.occ[b>>6] &^= 1 << (b & 63)
			} else {
				s.head[b] = s.slab[i].next
			}
			s.free = append(s.free, i)
			s.inWheel--
			s.base = ev.at
			return ev
		}
	}
	ev := s.popHeap()
	// Every wheel event orders after ev, so the base may advance to it.
	if ev.at > s.base {
		s.base = ev.at
	}
	return ev
}

// pushWheel appends ev to its cycle's bucket.
func (s *scheduler) pushWheel(ev event) {
	var i int32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = int32(len(s.slab))
		s.slab = append(s.slab, wheelSlot{})
	}
	s.slab[i].ev = ev
	b := uint64(ev.at) & wheelMask
	if bit := uint64(1) << (b & 63); s.occ[b>>6]&bit == 0 {
		s.occ[b>>6] |= bit
		s.head[b] = i
	} else {
		s.slab[s.tail[b]].next = i
	}
	s.tail[b] = i
	s.inWheel++
}

// firstBucket returns the bucket of the earliest wheel cycle: the first
// occupied bucket at or after the base's, wrapping once around the ring.
// The wheel must be non-empty.
func (s *scheduler) firstBucket() uint64 {
	start := uint64(s.base) & wheelMask
	w := start >> 6
	if word := s.occ[w] >> (start & 63); word != 0 {
		return start + uint64(bits.TrailingZeros64(word))
	}
	for k := uint64(1); k <= wheelWords; k++ {
		// The last probe revisits the base's word for the buckets below
		// the base, which hold the span's latest cycles.
		i := (w + k) % wheelWords
		if word := s.occ[i]; word != 0 {
			return i<<6 + uint64(bits.TrailingZeros64(word))
		}
	}
	panic("timing: firstBucket on an empty wheel")
}

func (s *scheduler) pushHeap(ev event) {
	s.heap = append(s.heap, ev)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&s.heap[i], &s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *scheduler) popHeap() event {
	top := s.heap[0]
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	if n > 1 {
		s.siftDown(0)
	}
	return top
}

func (s *scheduler) siftDown(i int) {
	n := len(s.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && before(&s.heap[r], &s.heap[l]) {
			min = r
		}
		if !before(&s.heap[min], &s.heap[i]) {
			return
		}
		s.heap[i], s.heap[min] = s.heap[min], s.heap[i]
		i = min
	}
}
