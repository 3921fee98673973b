package timing

import (
	"fmt"
	"math"
	"slices"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/cache"
	"github.com/datacentric-gpu/dcrm/internal/dram"
	"github.com/datacentric-gpu/dcrm/internal/simt"
)

// noEvent is the "scheduler empty / no pending work" sentinel on the
// window loop's time axis.
const noEvent = int64(math.MaxInt64)

// Message kinds: the four cross-component interactions of the machine.
const (
	// msgReq carries an L2 request (load miss or write-through store) from
	// an SM's inject port to a channel's ingress port.
	msgReq uint8 = iota
	// msgResp carries a fill from a channel's egress port back to an SM's
	// eject port.
	msgResp
	// msgCTAReq tells the dispatcher an SM finished a CTA and has a free
	// slot.
	msgCTAReq
	// msgCTAGrant assigns a queued CTA to the requesting SM.
	msgCTAGrant
)

// message is one cross-component interaction in flight. sendAt is the
// cycle the sending component issued it; due is when it clears the
// sender-side port (inject or egress) and becomes available at the
// receiver-side port. (sendAt, srcKey, srcSeq) is the commit order:
// srcKey identifies the sending component and srcSeq the engine's send
// order. Ordering commits by issue time (not arrival) mirrors the crossbar
// model, which reserves the receiver-side port slot the moment a packet is
// routed: a packet stuck behind a backed-up inject port still holds its
// place in the channel's service order.
type message struct {
	sendAt int64
	due    int64
	srcSeq uint64
	blk    arch.BlockAddr
	srcKey int32
	sm     int32
	ch     int32
	cta    int32
	kind   uint8
	write  bool
}

// msgBefore is the message commit order.
func msgBefore(a, b message) int {
	switch {
	case a.sendAt != b.sendAt:
		if a.sendAt < b.sendAt {
			return -1
		}
		return 1
	case a.srcKey != b.srcKey:
		if a.srcKey < b.srcKey {
			return -1
		}
		return 1
	case a.srcSeq < b.srcSeq:
		return -1
	default:
		return 1
	}
}

// chanState is one memory channel's domain: the L2 bank slice, the FR-FCFS
// DRAM controller behind it, and the channel's NoC ingress/egress ports.
// Waiters for in-flight L2 fills live in a slot array keyed by block — the
// same shape as the L1 MSHR — rather than a map: under the constant key
// churn of in-flight fills a map sporadically allocates overflow buckets
// forever, while the slot array and its per-slot SM lists reach a
// high-water mark and are then reused in place, keeping the steady state
// allocation-free.
type chanState struct {
	id         int32
	l2         *cache.Cache
	portFreeAt int64
	waitSlots  []l2waitSlot
	dram       *dram.Controller
	ingress    nocPort
	egress     nocPort
	pumpAt     int64
	scratch    []dram.Completion
	// responses counts NoC response traversals (summed into KernelStats.NoC).
	responses uint64
}

// l2waitSlot tracks one in-flight fill and the SMs awaiting it, in arrival
// order.
type l2waitSlot struct {
	blk   arch.BlockAddr
	valid bool
	sms   []int32
}

// addWaiter records smID as waiting on blk's fill and reports whether a
// fill was already outstanding (merged); the caller enqueues the DRAM
// request only for the first waiter.
func (c *chanState) addWaiter(blk arch.BlockAddr, smID int32) (merged bool) {
	free := -1
	for i := range c.waitSlots {
		s := &c.waitSlots[i]
		if s.valid {
			if s.blk == blk {
				s.sms = append(s.sms, smID)
				return true
			}
		} else if free == -1 {
			free = i
		}
	}
	if free == -1 {
		c.waitSlots = append(c.waitSlots, l2waitSlot{sms: make([]int32, 0, 8)})
		free = len(c.waitSlots) - 1
	}
	s := &c.waitSlots[free]
	s.blk, s.valid = blk, true
	s.sms = append(s.sms[:0], smID)
	return false
}

// takeWaiters releases blk's waiter list, returning the SM ids in arrival
// order, or nil when no fill is outstanding. The slice aliases the slot's
// storage and is valid until the slot is reused by a later addWaiter.
func (c *chanState) takeWaiters(blk arch.BlockAddr) []int32 {
	for i := range c.waitSlots {
		s := &c.waitSlots[i]
		if s.valid && s.blk == blk {
			s.valid = false
			return s.sms
		}
	}
	return nil
}

// nocPort is a serializing NoC port: one packet per cycle plus a fixed
// traversal latency. Every SM owns an inject and an eject port and every
// channel an ingress and an egress port, so a packet crosses two ports per
// direction and the channel ports are where replica traffic contends. The
// latency floor of one cycle is what guarantees every cross-component
// message is due at least one lookahead window after it is sent.
type nocPort struct {
	latency  int64
	nextFree int64
}

// send schedules a packet entering the port at cycle now and returns its
// delivery time; packets queue FIFO when the port is busy.
func (p *nocPort) send(now int64) int64 {
	start := now
	if p.nextFree > start {
		start = p.nextFree
	}
	p.nextFree = start + 1
	return start + p.latency
}

// post enqueues a typed event due at cycle at.
func (e *Engine) post(at int64, ev event) {
	ev.at = at
	e.sched.schedule(ev, e.now)
}

// sendMsg stamps a cross-component message and queues it for commit at
// the next window start.
func (e *Engine) sendMsg(m message) {
	m.srcSeq = e.msgSeq
	e.msgSeq++
	e.pending = append(e.pending, m)
}

// runWindows drives the replay window by window until no work is pending.
// The window grid is anchored at the kernel start and strides by the
// engine lookahead, so it is a function of the configuration alone.
func (e *Engine) runWindows(start int64) error {
	L := e.lookahead
	w := start
	for {
		e.commitMessages(w)
		if err := e.processWindow(w + L); err != nil {
			return err
		}
		next := e.nextPending()
		if next == noEvent {
			return nil
		}
		// Skip empty windows: jump straight to the grid point at or below
		// the earliest pending cycle.
		w = start + (next-start)/L*L
	}
}

// commitMessages opens the window starting at cycle w: it commits every
// pending message, in (sendAt, srcKey, srcSeq) order, reserving
// receiver-side port slots and posting the resulting events. Every pending
// message was sent before the window opened and every later one will be
// sent at or after it, so the commit order is monotone across windows,
// which keeps receiver-side port reservations in issue order.
func (e *Engine) commitMessages(w int64) {
	if e.now < w {
		e.now = w
	}
	slices.SortFunc(e.pending, msgBefore)
	for i := range e.pending {
		e.deliverMsg(&e.pending[i])
	}
	e.pending = e.pending[:0]
}

// deliverMsg converts one committed message into events at its receiver.
func (e *Engine) deliverMsg(m *message) {
	switch m.kind {
	case msgReq:
		at := e.chans[m.ch].ingress.send(m.due)
		e.post(at, event{kind: evL2Access, sm: m.sm, ch: m.ch, blk: m.blk, write: m.write})
	case msgResp:
		at := e.sms[m.sm].eject.send(m.due)
		e.post(at, event{kind: evSMReceive, sm: m.sm, blk: m.blk})
	case msgCTAReq:
		e.post(m.due, event{kind: evCTADispatch, sm: m.sm})
	case msgCTAGrant:
		e.post(m.due, event{kind: evCTAInstall, sm: m.sm, cta: m.cta})
	}
}

// processWindow pops and dispatches every event due before end.
func (e *Engine) processWindow(end int64) error {
	for e.sched.nextAt() < end {
		ev := e.sched.pop()
		if ev.at < e.now {
			return fmt.Errorf("timing: time ran backwards: %d < %d", ev.at, e.now)
		}
		e.now = ev.at
		e.dispatch(&ev)
	}
	return nil
}

// nextPending returns the earliest cycle with pending work: a scheduled
// event or the due cycle of an uncommitted message (which lower-bounds the
// event its commit will post).
func (e *Engine) nextPending() int64 {
	next := e.sched.nextAt()
	for i := range e.pending {
		if e.pending[i].due < next {
			next = e.pending[i].due
		}
	}
	return next
}

// dispatch executes one popped event.
func (e *Engine) dispatch(ev *event) {
	now := e.now
	switch ev.kind {
	case evSMStep:
		s := e.sms[ev.sm]
		if s.stepScheduledAt == now {
			s.step(now)
		}
	case evGroupArrive:
		if ev.g.gen == ev.gen {
			ev.g.arrive(now, e.sms[ev.sm])
		}
	case evL2Access:
		e.l2Access(ev.sm, e.chans[ev.ch], ev.blk, now, ev.write)
	case evSMReceive:
		e.smReceive(e.sms[ev.sm], ev.blk, now)
	case evDRAMComplete:
		e.dramComplete(e.chans[ev.ch], ev.blk, ev.write, now)
	case evDRAMPump:
		c := e.chans[ev.ch]
		if c.pumpAt == now {
			c.pumpAt = -1
			e.pumpDRAM(c, now)
		}
	case evCTADispatch:
		e.dispatchCTA(ev.sm, now)
	case evCTAInstall:
		s := e.sms[ev.sm]
		e.liveWarps += e.installCTA(s, int(ev.cta), now)
		e.wakeSM(s, now)
	}
}

// takeGroup pops a copy-group from the pool (or grows it), initializing
// the tracking fields. The generation survives from the pooled object so
// outstanding references from a previous life stay invalid.
func (e *Engine) takeGroup(op *loadOp, total, needed int, protected bool) *copyGroup {
	var g *copyGroup
	if n := len(e.groupPool); n > 0 {
		g = e.groupPool[n-1]
		e.groupPool = e.groupPool[:n-1]
	} else {
		g = &copyGroup{}
	}
	g.op = op
	g.total = total
	g.needed = needed
	g.arrived = 0
	g.protected = protected
	g.doneSent = false
	return g
}

// releaseGroup recycles a fully arrived copy-group, bumping its generation
// so any stale reference (event or MSHR waiter) is recognizably dead.
func (e *Engine) releaseGroup(g *copyGroup) {
	g.gen++
	g.op = nil
	e.groupPool = append(e.groupPool, g)
}

// takeLoadOp pops a load-op from the pool (or grows it).
func (e *Engine) takeLoadOp(w *warpState, s *smState, remaining int) *loadOp {
	var op *loadOp
	if n := len(e.loadPool); n > 0 {
		op = e.loadPool[n-1]
		e.loadPool = e.loadPool[:n-1]
	} else {
		op = &loadOp{}
	}
	op.warp = w
	op.sm = s
	op.remaining = remaining
	return op
}

// releaseLoadOp recycles a completed load-op. Copy-groups that already
// consumed their blockDone never touch the op again (doneSent), so the
// object is safe to reuse immediately.
func (e *Engine) releaseLoadOp(op *loadOp) {
	op.warp = nil
	op.sm = nil
	e.loadPool = append(e.loadPool, op)
}

// warpRetired accounts a warp's retirement; a fully retired CTA frees its
// slot and asks the dispatcher for a replacement with a message.
func (e *Engine) warpRetired(s *smState, w *warpState) {
	e.liveWarps--
	e.ctaLiveWarps[w.cta]--
	if e.ctaLiveWarps[w.cta] > 0 {
		return
	}
	s.residentCTAs--
	// Drop the CTA's warps from the resident set.
	kept := s.warps[:0]
	for _, rw := range s.warps {
		if rw.cta != w.cta {
			kept = append(kept, rw)
		}
	}
	s.warps = kept
	s.lastIssued = -1
	// One request per freed slot; the dispatcher answers with at most one
	// grant, so residency is conserved and requests are bounded by the
	// kernel's CTA count.
	e.sendMsg(message{
		sendAt: e.now, due: e.now + e.lookahead, srcKey: int32(s.id), kind: msgCTAReq, sm: int32(s.id),
	})
}

// dispatchCTA is the dispatcher's half of CTA refill: pop queued CTAs,
// skip ones with no live warps, grant the first real one to the asking SM.
func (e *Engine) dispatchCTA(sm int32, now int64) {
	for e.ctaHead < len(e.ctaQueue) {
		cta := e.ctaQueue[e.ctaHead]
		e.ctaHead++
		if e.ctaLiveCount(cta) == 0 {
			continue
		}
		e.sendMsg(message{
			sendAt: now, due: now + e.lookahead, srcKey: e.dispKey, kind: msgCTAGrant, sm: sm, cta: int32(cta),
		})
		return
	}
}

// scheduleStep arranges for the SM's issue loop to run at cycle at,
// deduplicating against an already-pending earlier step.
func (e *Engine) scheduleStep(s *smState, at int64) {
	if at < e.now {
		at = e.now
	}
	if s.stepScheduledAt >= 0 && s.stepScheduledAt <= at {
		return
	}
	s.stepScheduledAt = at
	// The event only acts when it is still the SM's current step marker:
	// superseded (stale) events die silently, which keeps the event count
	// linear in useful work. The marker always names exactly one live
	// event, so no wake-up is ever lost.
	e.post(at, event{kind: evSMStep, sm: int32(s.id)})
}

// wakeSM nudges the SM's issue loop at the current cycle, unblocking any
// warps parked on a structural stall (MSHR or compare buffer full): wake
// moments are exactly the resource-release moments.
func (e *Engine) wakeSM(s *smState, now int64) {
	for _, w := range s.warps {
		if w.readyAt >= stallParked {
			w.readyAt = now
		}
	}
	e.scheduleStep(s, now)
}

// issueLoad issues (or resumes) a load instruction's coalesced transactions
// at cycle t. It charges one LD/ST port cycle per transaction, including
// replica-copy transactions.
func (e *Engine) issueLoad(s *smState, w *warpState, in *simt.Instr, t int64) {
	if w.curLoad == nil {
		w.pendingLoads++
		w.curLoad = e.takeLoadOp(w, s, len(in.Blocks))
		s.instructions++
	}
	op := w.curLoad
	used := int64(0)
	for w.txIndex < len(in.Blocks) {
		blk := in.Blocks[w.txIndex]
		at := t + used
		copies := 1
		if e.plan != nil {
			copies = e.plan.Copies(in.PC, in.BufID)
		}

		if s.l1.Probe(blk) {
			// L1 hit: normal operation, no replication (Section IV-B1).
			s.l1.Read(blk)
			g := e.takeGroup(op, 1, 1, false)
			e.post(at+int64(e.cfg.L1HitLatency), event{kind: evGroupArrive, g: g, gen: g.gen, sm: int32(s.id)})
			used++
			w.txIndex++
			continue
		}

		// L1 miss: count the misses we are about to take (primary plus any
		// replica copies not resident) and check structural resources.
		missing := 1
		for c := 1; c < copies; c++ {
			if !s.l1.Probe(e.plan.ReplicaBlock(in.BufID, blk, c)) {
				missing++
			}
		}
		if copies > 1 && s.compareInUse >= e.CompareBufferSize {
			e.cmpStalls++
			e.stallRetry(s, w, t, used)
			return
		}
		if s.mshr.Capacity()-s.mshr.InUse() < missing {
			e.mshrStalls++
			e.stallRetry(s, w, t, used)
			return
		}

		needed := copies
		if copies == 1 || (e.plan != nil && e.plan.Lazy()) {
			needed = 1
		}
		g := e.takeGroup(op, copies, needed, copies > 1)
		if g.protected {
			s.compareInUse++
			e.copyTx += uint64(copies - 1)
		}
		for c := 0; c < copies; c++ {
			cb := blk
			if c > 0 {
				cb = e.plan.ReplicaBlock(in.BufID, blk, c)
			}
			txAt := t + used
			used++ // each copy transaction consumes an LD/ST port cycle
			if s.l1.Read(cb) {
				// This copy is resident in L1.
				e.post(txAt+int64(e.cfg.L1HitLatency), event{kind: evGroupArrive, g: g, gen: g.gen, sm: int32(s.id)})
				continue
			}
			if e.Blocks != nil {
				e.Blocks.Misses[cb]++
			}
			switch s.mshr.Allocate(cb, groupRef{g: g, gen: g.gen}) {
			case cache.MSHRNew:
				e.sendToL2(s, cb, txAt, false)
			case cache.MSHRMerged:
				// An earlier miss to this block is in flight; we ride it.
			case cache.MSHRFull:
				// Cannot happen: headroom was checked above.
			}
		}
		w.txIndex++
	}
	s.portFreeAt = t + maxI64(used, 1)
	w.readyAt = s.portFreeAt
	w.curLoad = nil
	s.finishInstr(w)
}

// stallRetry charges the port for the work done so far and parks the warp
// until a resource-release wake (wakeSM) clears the sentinel. A structural
// stall implies outstanding fills, so a wake always follows — polling on a
// timer would multiply events without making progress.
func (e *Engine) stallRetry(s *smState, w *warpState, t, used int64) {
	s.portFreeAt = t + maxI64(used, 1)
	w.readyAt = stallParked
}

// issueStore forwards a store's transactions write-through to L2, returning
// the port cycles consumed.
func (e *Engine) issueStore(s *smState, in *simt.Instr, t int64) int64 {
	for i, blk := range in.Blocks {
		s.l1.Write(blk)
		e.sendToL2(s, blk, t+int64(i), true)
	}
	return int64(len(in.Blocks))
}

// sendToL2 serializes a request on the SM's inject port and sends it to
// the block's channel; the ingress hop happens at commit.
func (e *Engine) sendToL2(s *smState, blk arch.BlockAddr, t int64, write bool) {
	ch := int32(e.cfg.ChannelOf(blk))
	s.requests++
	due := s.inject.send(t)
	e.sendMsg(message{
		sendAt: t, due: due, srcKey: int32(s.id), kind: msgReq, sm: int32(s.id), ch: ch, blk: blk, write: write,
	})
}

// l2Access performs the bank lookup, serialized on the bank port.
func (e *Engine) l2Access(smID int32, c *chanState, blk arch.BlockAddr, now int64, write bool) {
	st := now
	if c.portFreeAt > st {
		st = c.portFreeAt
	}
	c.portFreeAt = st + 1
	hitLat := int64(e.cfg.L2HitLatency)

	if write {
		if e.Blocks != nil && st > e.Blocks.LastStore[blk] {
			e.Blocks.LastStore[blk] = st
		}
		if !c.l2.Write(blk) {
			// No-write-allocate: miss goes to DRAM.
			c.dram.Enqueue(dram.Request{Block: blk, Write: true}, st+hitLat)
			e.pumpDRAM(c, st+hitLat)
		}
		return
	}

	if c.l2.Read(blk) {
		e.respond(c, smID, blk, st+hitLat)
		return
	}
	// Miss: merge on an outstanding fill if one exists.
	if c.addWaiter(blk, smID) {
		return
	}
	c.dram.Enqueue(dram.Request{Block: blk}, st+hitLat)
	e.pumpDRAM(c, st+hitLat)
}

// respond serializes a fill on the channel's egress port and sends it to
// the waiting SM; the eject hop happens at commit.
func (e *Engine) respond(c *chanState, smID int32, blk arch.BlockAddr, t int64) {
	c.responses++
	due := c.egress.send(t)
	e.sendMsg(message{
		sendAt: t, due: due, srcKey: int32(e.cfg.NumSMs) + c.id, kind: msgResp, sm: smID, blk: blk,
	})
}

// smReceive fills L1 and completes every waiter of the returned block.
func (e *Engine) smReceive(s *smState, blk arch.BlockAddr, now int64) {
	s.l1.Fill(blk)
	for _, ref := range s.mshr.Complete(blk) {
		if ref.g.gen == ref.gen {
			ref.g.arrive(now, s)
		}
	}
	// The MSHR entry just freed may unblock a parked warp even if no load
	// completed.
	e.wakeSM(s, now)
}

// pumpDRAM advances the channel's controller and schedules completions and
// the next scheduling opportunity.
func (e *Engine) pumpDRAM(c *chanState, now int64) {
	c.scratch = c.dram.AdvanceAppend(c.scratch[:0], now)
	for _, comp := range c.scratch {
		e.post(comp.At, event{kind: evDRAMComplete, ch: c.id, blk: comp.Req.Block, write: comp.Req.Write})
	}
	if c.dram.QueueLen() == 0 {
		return
	}
	next := c.dram.NextStartTime()
	if next <= now {
		next = now + 1
	}
	if c.pumpAt >= 0 && c.pumpAt <= next {
		return
	}
	c.pumpAt = next
	e.post(next, event{kind: evDRAMPump, ch: c.id})
}

// dramComplete fills L2 and fans the data out to waiting SMs.
func (e *Engine) dramComplete(c *chanState, blk arch.BlockAddr, write bool, now int64) {
	defer e.pumpDRAM(c, now)
	if write {
		return
	}
	if ev, had := c.l2.Fill(blk); had && ev.Dirty {
		// Dirty victim: write back to DRAM.
		c.dram.Enqueue(dram.Request{Block: ev.Block, Write: true}, now)
	}
	for _, smID := range c.takeWaiters(blk) {
		e.respond(c, smID, blk, now)
	}
}
