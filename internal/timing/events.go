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
// run loop, not heap-allocated closures, and they are ordered by the same
// (cycle, sequence) key the original container/heap implementation used:
// earliest cycle first, scheduling order breaking ties. Two structures back
// that order without boxing anything through an interface:
//
//   - a plain slice-based binary min-heap of event values for future-cycle
//     events, and
//   - a same-cycle FIFO for events scheduled at the cycle currently being
//     processed — those are, by construction, already in (cycle, sequence)
//     order, so they skip the heap entirely.
//
// Because the sequence counter is monotonic, any event in the heap due at
// the current cycle was scheduled earlier (smaller seq) than every FIFO
// entry, and the pop path's unified (at, seq) comparison preserves the
// exact global order of a single ordered heap.
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
// Two observation points connect the engine to the fault models in
// internal/fault. Engine.OnStore reports every store's L2-bank commit
// (block, cycle) — one instrumented replay of an application yields the
// store-commit timeline the transient-SEU model uses to decide whether a
// later store overwrites an injected flip. Engine.InjectAt schedules a
// one-shot callback at a chosen cycle through the ordinary event
// scheduler (kind evInject), so a replay can corrupt state at an exact,
// deterministic point in simulated time. Both default to off and cost
// nothing when unused; attach them only to instrumented replays, never to
// runs whose statistics feed the golden determinism gates.
package timing

import "github.com/datacentric-gpu/dcrm/internal/arch"

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
	// evInject runs a one-shot fault-injection callback registered with
	// Engine.InjectAt when the replay reaches its cycle. The event reuses
	// the sm payload field as the callback's index in Engine.injectFns.
	evInject
	// evCTADispatch is the CTA dispatcher's receipt of an SM's request for
	// a replacement CTA (msgCTAReq): it pops queued CTAs, skipping ones
	// with no live warps, and answers with a grant message.
	evCTADispatch
	// evCTAInstall is an SM's receipt of a CTA grant (msgCTAGrant): the
	// CTA's warps are installed from the slab and the issue loop is woken.
	evCTAInstall
)

// event is one scheduled action: an ordering key plus a tagged payload.
// It is a value type — events move through the heap and FIFO by copy and
// never escape to the Go heap.
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

// scheduler orders events by (at, seq) with a monotonic sequence counter.
// Future events live in a non-boxing binary min-heap of event values;
// events scheduled for the cycle currently being processed take a FIFO
// fast path (they are appended in seq order, which for a single cycle IS
// the pop order). Both backing slices are reused across kernels, so the
// steady state performs no allocation.
type scheduler struct {
	heap     []event
	fifo     []event
	fifoHead int
	seq      uint64
}

// schedule enqueues ev, stamping the next sequence number. now is the
// cycle the engine is currently processing: events due exactly now are
// FIFO-ordered without touching the heap.
func (s *scheduler) schedule(ev event, now int64) {
	ev.seq = s.seq
	s.seq++
	if ev.at == now {
		s.fifo = append(s.fifo, ev)
		return
	}
	s.pushHeap(ev)
}

func (s *scheduler) empty() bool {
	return len(s.heap) == 0 && s.fifoHead == len(s.fifo)
}

// pending returns the number of scheduled events not yet popped.
func (s *scheduler) pending() int {
	return len(s.heap) + len(s.fifo) - s.fifoHead
}

// nextAt returns the cycle of the earliest pending event, or noEvent when
// the scheduler is empty. The windowed replay loop peeks it to decide
// whether the next event still falls inside the current window.
func (s *scheduler) nextAt() int64 {
	next := int64(noEvent)
	if s.fifoHead < len(s.fifo) {
		next = s.fifo[s.fifoHead].at
	}
	if len(s.heap) > 0 && s.heap[0].at < next {
		next = s.heap[0].at
	}
	return next
}

// reset drops every pending event and rewinds the sequence counter,
// keeping the backing arrays for reuse.
func (s *scheduler) reset() {
	s.heap = s.heap[:0]
	s.fifo = s.fifo[:0]
	s.fifoHead = 0
	s.seq = 0
}

// pop removes and returns the globally earliest event under (at, seq).
// The FIFO holds only events for the in-progress cycle; a heap event can
// still precede the FIFO head when it was scheduled for this same cycle
// at an earlier point in time (smaller seq), so the head-to-head
// comparison below is what keeps the order bit-identical to a single
// ordered heap.
func (s *scheduler) pop() event {
	if s.fifoHead < len(s.fifo) {
		f := &s.fifo[s.fifoHead]
		if len(s.heap) == 0 || before(f, &s.heap[0]) {
			ev := *f
			s.fifoHead++
			if s.fifoHead == len(s.fifo) {
				// Drained: rewind so the backing array is reused.
				s.fifo = s.fifo[:0]
				s.fifoHead = 0
			}
			return ev
		}
	}
	return s.popHeap()
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
