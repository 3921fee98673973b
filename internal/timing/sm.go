package timing

import (
	"github.com/datacentric-gpu/dcrm/internal/cache"
	"github.com/datacentric-gpu/dcrm/internal/simt"
)

// warpState tracks one resident warp's progress through its trace.
type warpState struct {
	trace        []simt.Instr
	pc           int     // next instruction index
	txIndex      int     // resume point within a partially issued memory instr
	pendingLoads int     // loads issued but not yet complete
	readyAt      int64   // earliest cycle the warp may issue again
	age          uint64  // install order on the SM; smState.warps is sorted by it
	cta          int     // CTA slot the warp belongs to (engine-level id)
	curLoad      *loadOp // in-flight load op while a load is partially issued
	retired      bool
}

// nextInstr returns the warp's next instruction, or nil when retired.
func (w *warpState) nextInstr() *simt.Instr {
	if w.pc >= len(w.trace) {
		return nil
	}
	return &w.trace[w.pc]
}

// ready reports whether the warp can issue at cycle t: it must have work,
// be past its ready time, and — for compute and store instructions, which
// consume load results — have no outstanding loads (scoreboard).
func (w *warpState) ready(t int64) bool {
	if w.retired || w.readyAt > t {
		return false
	}
	in := w.nextInstr()
	if in == nil {
		return false
	}
	if in.Kind != simt.InstrLoad && w.pendingLoads > 0 {
		return false
	}
	return true
}

// loadOp tracks one in-flight load instruction: how many of its coalesced
// block accesses still owe a completion for scoreboard purposes. Load-ops
// are pooled on the engine (takeLoadOp/releaseLoadOp); an op returns to
// the pool the moment its last block completes.
type loadOp struct {
	warp      *warpState
	remaining int
	sm        *smState
}

// blockDone retires one block's dependency; when the whole load is done the
// warp's scoreboard clears, the op is recycled, and the SM is woken.
func (op *loadOp) blockDone(now int64) {
	op.remaining--
	if op.remaining == 0 {
		op.warp.pendingLoads--
		s := op.sm
		s.engine.releaseLoadOp(op)
		s.engine.wakeSM(s, now)
	}
}

// copyGroup tracks the copies of one protected (or plain) block access.
// Groups are pooled on the engine (takeGroup/releaseGroup); gen counts the
// object's reuses so that MSHR waiters and scheduled arrival events, which
// carry the generation they were issued against, can detect a recycled
// group and drop themselves.
type copyGroup struct {
	op        *loadOp
	total     int // copies in flight
	needed    int // arrivals required before blockDone (1 = lazy/unprotected)
	arrived   int
	gen       uint32
	protected bool // occupies a compare-buffer entry until all copies arrive
	doneSent  bool
}

// arrive records one copy's data arriving at the LD/ST unit. The final
// copy's arrival retires the group back to the engine pool.
func (g *copyGroup) arrive(now int64, s *smState) {
	g.arrived++
	if !g.doneSent && g.arrived >= g.needed {
		g.doneSent = true
		g.op.blockDone(now)
	}
	if g.arrived == g.total {
		if g.protected {
			// Comparison (or majority vote) performed; release the entry.
			s.compareInUse--
			s.engine.wakeSM(s, now)
		}
		s.engine.releaseGroup(g)
	}
}

// smState is one streaming multiprocessor.
type smState struct {
	id     int
	engine *Engine
	l1     *cache.Cache
	mshr   *cache.MSHR[groupRef]

	// inject serializes requests leaving the SM toward the NoC (at send);
	// eject serializes responses arriving from it (at message commit).
	inject nocPort
	eject  nocPort

	// warps holds the resident warps in age order: installCTA appends them
	// as it numbers them and warpRetired filters in place.
	warps        []*warpState
	lastIssued   int // index into warps, -1 initially
	portFreeAt   int64
	compareInUse int
	// parked counts the warps parked on a structural stall (stallRetry)
	// since the last wakeSM, which unparks them all.
	parked       int
	residentCTAs int
	ageCounter   uint64

	stepScheduledAt int64 // -1 when no step event pending
	instructions    uint64
	requests        uint64 // NoC request traversals (KernelStats.NoC)
}

// pickWarp selects the next warp to issue at cycle t under the configured
// policy.
func (s *smState) pickWarp(t int64) *warpState {
	if len(s.warps) == 0 {
		return nil
	}
	switch s.engine.Policy {
	case LRR:
		n := len(s.warps)
		for i := 1; i <= n; i++ {
			w := s.warps[(s.lastIssued+i)%n]
			if w.ready(t) {
				s.lastIssued = (s.lastIssued + i) % n
				return w
			}
		}
		return nil
	default: // GTO
		if s.lastIssued >= 0 && s.lastIssued < len(s.warps) {
			if w := s.warps[s.lastIssued]; w.ready(t) {
				return w
			}
		}
		// The warps are in age order, so the first ready one is the oldest.
		for i, w := range s.warps {
			if w.ready(t) {
				s.lastIssued = i
				return w
			}
		}
		return nil
	}
}

// nextWake returns the earliest future cycle at which a warp could become
// issue-ready by time alone (readyAt), or -1 if every non-retired warp is
// waiting on memory.
func (s *smState) nextWake(t int64) int64 {
	next := int64(-1)
	for _, w := range s.warps {
		if w.retired {
			continue
		}
		in := w.nextInstr()
		if in == nil {
			continue
		}
		if in.Kind != simt.InstrLoad && w.pendingLoads > 0 {
			continue // memory-bound; a response will wake the SM
		}
		if w.readyAt >= stallParked {
			continue // parked on a structural stall; wakeSM unparks it
		}
		if w.readyAt > t && (next == -1 || w.readyAt < next) {
			next = w.readyAt
		}
	}
	return next
}

// step is the SM's issue loop at cycle t: issue as long as the port is free
// and a warp is ready, then schedule the next wake-up.
func (s *smState) step(t int64) {
	s.stepScheduledAt = -1
	if s.portFreeAt > t {
		s.engine.scheduleStep(s, s.portFreeAt)
		return
	}
	w := s.pickWarp(t)
	if w == nil {
		if next := s.nextWake(t); next >= 0 {
			s.engine.scheduleStep(s, next)
		}
		return
	}
	s.execute(w, t)
	// Re-enter at the next port-free cycle to issue further instructions.
	next := s.portFreeAt
	if next <= t {
		next = t + 1
	}
	s.engine.scheduleStep(s, next)
}

// execute issues one instruction (or resumes a partially issued one).
func (s *smState) execute(w *warpState, t int64) {
	in := w.nextInstr()
	switch in.Kind {
	case simt.InstrCompute:
		n := int64(in.Ops)
		if n < 1 {
			n = 1
		}
		s.portFreeAt = t + n
		w.readyAt = t + n
		s.instructions++
		s.finishInstr(w)
	case simt.InstrStore:
		cycles := s.engine.issueStore(s, in, t)
		s.portFreeAt = t + cycles
		w.readyAt = t + cycles
		s.instructions++
		s.finishInstr(w)
	case simt.InstrLoad:
		s.engine.issueLoad(s, w, in, t)
	}
}

// finishInstr advances the warp past its current instruction, retiring the
// warp (and possibly its CTA) when the trace is exhausted.
func (s *smState) finishInstr(w *warpState) {
	w.pc++
	w.txIndex = 0
	if w.pc >= len(w.trace) {
		w.retired = true
		s.engine.warpRetired(s, w)
	}
}
