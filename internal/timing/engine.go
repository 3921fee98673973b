package timing

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/cache"
	"github.com/datacentric-gpu/dcrm/internal/dram"
	"github.com/datacentric-gpu/dcrm/internal/simt"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// groupRef is the MSHR waiter payload: a copy-group plus the group's
// generation at allocation time. A completion whose generation no longer
// matches refers to a group already recycled through the pool and is
// dropped — stale fills can never corrupt a reused group.
type groupRef struct {
	g   *copyGroup
	gen uint32
}

// Engine is the timing simulator. Build one with New, then replay kernel
// traces with RunKernel; L2 and DRAM state persist across kernels of the
// same application while L1s are invalidated at kernel boundaries. Not safe
// for concurrent use.
//
// The engine is allocation-free in steady state: replaying the same (or a
// same-shaped) kernel repeatedly on one engine performs zero heap
// allocations per replay. Events are value types in a non-boxing
// scheduler, copy-groups and load-ops are pooled on free-lists built by
// New, warp state lives in a reusable slab, and every auxiliary slice (CTA
// queue, L2 waiter lists, DRAM completion scratch, pending messages) is
// recycled across kernels.
type Engine struct {
	cfg arch.Config
	// Shards is ignored: every replay runs on the engine's one event
	// scheduler.
	//
	// Deprecated: kept only so existing callers compile; it will be
	// removed.
	Shards int
	// Policy selects the warp scheduler (default GTO).
	Policy SchedulerPolicy
	// CompareBufferSize overrides the pending-comparison buffer entries
	// (default CompareBufferEntries); used by the sizing ablation.
	CompareBufferSize int
	// Metrics, when non-nil, receives per-SM, per-L2-bank, and per-DRAM-
	// channel counters after every kernel. The hot event loop is untouched
	// — counters are published from the per-component Stats at kernel
	// boundaries — so attaching a registry neither perturbs results nor
	// costs measurable time (see BenchmarkRunKernelTelemetry).
	Metrics *telemetry.Registry
	// Trace, when non-nil, records a Chrome trace_event timeline: one lane
	// per SM, per L2 bank, and per DRAM channel, with one span per kernel
	// and per-channel counter tracks.
	Trace *telemetry.Trace
	// Blocks, when non-nil, records per 128 B block what the replay
	// exposes to the L2/DRAM fault domain (see BlockLog). Observation
	// only — it does not perturb replay timing — but like Trace it belongs
	// on dedicated instrumented replays, not on golden-stat runs.
	Blocks *BlockLog

	traceMeta bool // lane-metadata events emitted (once per engine)

	plan  ProtectionPlan
	sms   []*smState
	chans []*chanState

	// lookahead is the replay window length L: every cross-component
	// message latency is at least L, so a message sent in one window is
	// never due before the next (see runWindows). dispKey is the CTA
	// dispatcher's message source key.
	lookahead int64
	dispKey   int32

	sched   scheduler
	now     int64     // the replay clock; the end of the last kernel between replays
	pending []message // cross-component messages awaiting the next window's commit
	msgSeq  uint64

	// Free-lists for load-ops and copy-groups, pre-filled by New past their
	// high-water marks (outstanding L1 misses, resident warps).
	groupPool []*copyGroup
	loadPool  []*loadOp

	// Per-kernel counters.
	copyTx     uint64
	mshrStalls uint64
	cmpStalls  uint64

	// Warp state slab: one slot per trace warp, indexed by the warp's
	// trace index.
	warpSlab []warpState

	// Per-kernel bookkeeping.
	trace        *simt.KernelTrace
	ctaQueue     []int
	ctaHead      int // dispatch position within ctaQueue (no reslicing)
	warpsPerCTA  int
	maxCTAsPerSM int
	ctaLiveWarps []int // live warps per CTA, indexed by CTA id
	liveWarps    int   // installed warps not yet retired
}

// New builds an engine for the configuration. plan may be nil (baseline, no
// protection).
func New(cfg arch.Config, plan ProtectionPlan) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("timing: %w", err)
	}
	// The interconnect's one-way latency splits into an injection half and
	// a delivery half, floored at one cycle each so the lookahead window
	// is well-defined for any configuration.
	half := int64(cfg.InterconnectLatency / 2)
	rest := int64(cfg.InterconnectLatency) - half
	if half < 1 {
		half = 1
	}
	if rest < 1 {
		rest = 1
	}
	e := &Engine{
		cfg:               cfg,
		Policy:            GTO,
		CompareBufferSize: CompareBufferEntries,
		plan:              plan,
		lookahead:         half,
		dispKey:           int32(cfg.NumSMs + cfg.NumMemChannels),
		pending:           make([]message, 0, 64),
	}
	e.sched.presize()
	groups := make([]copyGroup, cfg.NumSMs*cfg.L1MSHRs)
	e.groupPool = make([]*copyGroup, len(groups))
	for i := range groups {
		e.groupPool[i] = &groups[i]
	}
	loads := make([]loadOp, cfg.NumSMs*cfg.MaxWarpsPerSM)
	e.loadPool = make([]*loadOp, len(loads))
	for i := range loads {
		e.loadPool[i] = &loads[i]
	}
	for ch := 0; ch < cfg.NumMemChannels; ch++ {
		l2, err := cache.New(cfg.L2)
		if err != nil {
			return nil, fmt.Errorf("timing: L2 bank %d: %w", ch, err)
		}
		ctl, err := dram.NewController(cfg)
		if err != nil {
			return nil, fmt.Errorf("timing: DRAM channel %d: %w", ch, err)
		}
		fills, err := cache.NewMSHR[int32](cfg.NumSMs * cfg.L1MSHRs)
		if err != nil {
			return nil, fmt.Errorf("timing: L2 bank %d: %w", ch, err)
		}
		e.chans = append(e.chans, &chanState{
			id:      int32(ch),
			l2:      l2,
			fills:   fills,
			dram:    ctl,
			ingress: nocPort{latency: rest},
			egress:  nocPort{latency: half},
			pumpAt:  -1,
			scratch: make([]dram.Completion, 0, 64),
		})
	}
	for i := 0; i < cfg.NumSMs; i++ {
		l1, err := cache.New(cfg.L1)
		if err != nil {
			return nil, fmt.Errorf("timing: L1 %d: %w", i, err)
		}
		mshr, err := cache.NewMSHR[groupRef](cfg.L1MSHRs)
		if err != nil {
			return nil, fmt.Errorf("timing: MSHR %d: %w", i, err)
		}
		e.sms = append(e.sms, &smState{
			id: i, engine: e, l1: l1, mshr: mshr,
			lastIssued: -1, stepScheduledAt: -1,
			inject: nocPort{latency: half},
			eject:  nocPort{latency: rest},
		})
	}
	return e, nil
}

// RunKernel replays one kernel trace to completion and returns its stats.
func (e *Engine) RunKernel(tr *simt.KernelTrace) (KernelStats, error) {
	if tr == nil || len(tr.Warps) == 0 {
		return KernelStats{}, fmt.Errorf("timing: empty trace")
	}
	e.resetForKernel(tr)
	start := e.now

	// Initial CTA fill in SM index order.
	for _, s := range e.sms {
		e.fillSM(s)
		e.scheduleStep(s, start)
	}
	if err := e.runWindows(start); err != nil {
		e.sched.reset()
		e.pending = e.pending[:0]
		return KernelStats{}, err
	}
	if e.liveWarps != 0 {
		return KernelStats{}, fmt.Errorf("timing: kernel %q deadlocked with %d live warps", tr.Kernel, e.liveWarps)
	}
	ks := e.collectStats(tr.Kernel, e.now-start)
	e.publishTelemetry(ks, start)
	return ks, nil
}

// RunApp replays an application's kernels back-to-back (L1s invalidated at
// each boundary, L2/DRAM state persists).
func (e *Engine) RunApp(app string, traces []*simt.KernelTrace) (AppStats, error) {
	out := AppStats{App: app}
	for _, tr := range traces {
		ks, err := e.RunKernel(tr)
		if err != nil {
			return AppStats{}, fmt.Errorf("timing: app %s: %w", app, err)
		}
		out.Kernels = append(out.Kernels, ks)
	}
	return out, nil
}

func (e *Engine) resetForKernel(tr *simt.KernelTrace) {
	e.trace = tr
	e.warpsPerCTA = tr.WarpsPerCTA
	e.ctaQueue = e.ctaQueue[:0]
	e.ctaHead = 0
	for c := 0; c < tr.NumCTAs; c++ {
		e.ctaQueue = append(e.ctaQueue, c)
	}
	e.maxCTAsPerSM = e.cfg.MaxCTAsPerSM
	if byWarps := e.cfg.MaxWarpsPerSM / tr.WarpsPerCTA; byWarps < e.maxCTAsPerSM {
		e.maxCTAsPerSM = byWarps
	}
	if e.maxCTAsPerSM < 1 {
		e.maxCTAsPerSM = 1
	}
	if cap(e.ctaLiveWarps) < tr.NumCTAs {
		e.ctaLiveWarps = make([]int, tr.NumCTAs)
	} else {
		e.ctaLiveWarps = e.ctaLiveWarps[:tr.NumCTAs]
		for i := range e.ctaLiveWarps {
			e.ctaLiveWarps[i] = 0
		}
	}
	if cap(e.warpSlab) < len(tr.Warps) {
		e.warpSlab = make([]warpState, len(tr.Warps))
	} else {
		e.warpSlab = e.warpSlab[:len(tr.Warps)]
	}
	e.liveWarps = 0
	for _, c := range e.chans {
		c.l2.ResetStats()
		c.dram.ResetStats()
		c.responses = 0
	}
	for _, s := range e.sms {
		s.l1.InvalidateAll()
		s.l1.ResetStats()
		s.mshr.Reset()
		s.warps = s.warps[:0]
		s.lastIssued = -1
		s.portFreeAt = e.now
		s.compareInUse = 0
		s.parked = 0
		s.residentCTAs = 0
		s.stepScheduledAt = -1
		s.instructions = 0
		s.requests = 0
	}
	e.copyTx, e.mshrStalls, e.cmpStalls = 0, 0, 0
}

func (e *Engine) collectStats(kernel string, cycles int64) KernelStats {
	ks := KernelStats{
		Kernel:           kernel,
		Cycles:           cycles,
		CopyTransactions: e.copyTx,
		MSHRStalls:       e.mshrStalls,
		CompareStalls:    e.cmpStalls,
	}
	for _, s := range e.sms {
		ks.L1.Add(s.l1.Stats)
		ks.Instructions += s.instructions
		ks.NoC.Requests += s.requests
	}
	for _, c := range e.chans {
		ks.L2.Add(c.l2.Stats)
		ks.DRAM.Add(c.dram.Stats)
		ks.NoC.Responses += c.responses
	}
	return ks
}

// BlockLog records, per block and across every kernel the engine runs,
// the replay's two exposures to the L2/DRAM fault domain that fault
// injection reads. Both are dense per-block slices indexed by block
// address, so recording an exposure is one indexed update; NewBlockLog
// sizes them once for the replayed address space.
type BlockLog struct {
	// misses counts each block's L1 misses, replica copies included.
	misses []uint64
	// lastStore holds each stored-to block's last port-serialized L2-bank
	// commit cycle; 0 means none, so a commit at cycle 0 records nothing.
	lastStore []int64
}

// NewBlockLog returns an empty log for the blocks [0, blocks): every block
// the replays it observes touch, replicas included.
func NewBlockLog(blocks int) *BlockLog {
	return &BlockLog{misses: make([]uint64, blocks), lastStore: make([]int64, blocks)}
}

// miss records one L1 miss of block b.
func (l *BlockLog) miss(b arch.BlockAddr) { l.misses[b]++ }

// store records a store commit of block b at cycle at.
func (l *BlockLog) store(b arch.BlockAddr, at int64) {
	if at > l.lastStore[b] {
		l.lastStore[b] = at
	}
}

// Misses returns every block with at least one L1 miss, in ascending
// order, and each one's miss count.
func (l *BlockLog) Misses() (blocks []arch.BlockAddr, counts []uint64) {
	return nonZero(l.misses)
}

// Stores returns every block with a store committed after cycle 0, in
// ascending order, and each one's last commit cycle.
func (l *BlockLog) Stores() (blocks []arch.BlockAddr, cycles []int64) {
	return nonZero(l.lastStore)
}

// nonZero lists the indices of dense's non-zero entries, ascending, with
// their values, in slices of exactly that length: the exposure artifact
// keeps them for the checkpoint's lifetime.
func nonZero[T uint64 | int64](dense []T) ([]arch.BlockAddr, []T) {
	n := 0
	for _, v := range dense {
		if v != 0 {
			n++
		}
	}
	if n == 0 {
		return nil, nil
	}
	blocks, vals := make([]arch.BlockAddr, 0, n), make([]T, 0, n)
	for b, v := range dense {
		if v != 0 {
			blocks = append(blocks, arch.BlockAddr(b))
			vals = append(vals, v)
		}
	}
	return blocks, vals
}

// ctaLiveCount returns how many of a CTA's warps carry a non-empty trace —
// what installCTA would install as live.
func (e *Engine) ctaLiveCount(cta int) int {
	n := 0
	for wi := 0; wi < e.warpsPerCTA; wi++ {
		if len(e.trace.Warps[cta*e.warpsPerCTA+wi]) > 0 {
			n++
		}
	}
	return n
}

// installCTA makes one CTA resident on an SM, installing its warps from
// the slab (slots are indexed by trace warp index). Returns the number of
// live warps installed; a fully empty CTA releases its slot again.
func (e *Engine) installCTA(s *smState, cta int, now int64) int {
	s.residentCTAs++
	live := 0
	for wi := 0; wi < e.warpsPerCTA; wi++ {
		idx := cta*e.warpsPerCTA + wi
		trace := e.trace.Warps[idx]
		w := &e.warpSlab[idx]
		*w = warpState{trace: trace, age: s.ageCounter, cta: cta, readyAt: now}
		s.ageCounter++
		if len(trace) == 0 {
			w.retired = true
		} else {
			s.warps = append(s.warps, w)
			live++
		}
	}
	e.ctaLiveWarps[cta] = live
	if live == 0 {
		s.residentCTAs--
	}
	return live
}

// fillSM fills an SM with CTAs up to its occupancy limit — the initial
// fill at kernel start. Replacement CTAs during the replay flow through
// the dispatcher's message protocol instead.
func (e *Engine) fillSM(s *smState) {
	for s.residentCTAs < e.maxCTAsPerSM && e.ctaHead < len(e.ctaQueue) {
		cta := e.ctaQueue[e.ctaHead]
		e.ctaHead++
		e.liveWarps += e.installCTA(s, cta, e.now)
	}
}
