package timing

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/simt"
)

// The scheduler's contract: events pop in strict (at, seq) order — earliest
// cycle first, scheduling order breaking ties — regardless of whether an
// event travelled through the timing wheel or the overflow heap. Every
// test here identifies events by the blk field.

// popAll drains the scheduler, advancing `now` like the engine run loop
// does, and returns the event ids in pop order.
func popAll(t *testing.T, s *scheduler, now int64) []uint64 {
	t.Helper()
	var order []uint64
	var ev event
	for s.popBefore(noEvent, &ev) {
		if ev.at < now {
			t.Fatalf("time ran backwards: popped at=%d after now=%d", ev.at, now)
		}
		now = ev.at
		order = append(order, uint64(ev.blk))
	}
	if !s.empty() {
		t.Fatalf("popBefore(noEvent) stopped with %d events pending", s.pending())
	}
	return order
}

// TestSchedulerSeqTieBreak: events scheduled for the same cycle pop in
// scheduling order, on both the wheel path and the overflow path.
func TestSchedulerSeqTieBreak(t *testing.T) {
	const at = 10 * wheelSpan
	for _, tc := range []struct {
		tier string
		now  int64
	}{{"wheel", at - 10}, {"overflow", 0}} {
		var s scheduler
		for i := 0; i < 100; i++ {
			s.schedule(event{at: at, blk: arch.BlockAddr(i)}, tc.now)
		}
		order := popAll(t, &s, tc.now)
		if len(order) != 100 {
			t.Fatalf("%s: popped %d events, want 100", tc.tier, len(order))
		}
		for i, id := range order {
			if id != uint64(i) {
				t.Fatalf("%s: pop %d returned event %d; seq tie-break broken", tc.tier, i, id)
			}
		}
	}
}

// TestSchedulerWheelMatchesOverflowPath: the same schedule sequence must
// pop identically whether every event lands in the timing wheel (scheduled
// from near its cycle) or in the overflow heap (scheduled from at least a
// wheel span before it).
func TestSchedulerWheelMatchesOverflowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const first = 4 * wheelSpan
	type sched struct {
		at int64
		id uint64
	}
	var seq []sched
	for i := 0; i < 500; i++ {
		seq = append(seq, sched{at: first + int64(rng.Intn(wheelSpan/2)), id: uint64(i)})
	}

	var viaWheel, viaHeap scheduler
	for _, ev := range seq {
		viaWheel.schedule(event{at: ev.at, blk: arch.BlockAddr(ev.id)}, first)
		viaHeap.schedule(event{at: ev.at, blk: arch.BlockAddr(ev.id)}, 0)
	}
	if viaWheel.inWheel != len(seq) || len(viaHeap.heap) != len(seq) {
		t.Fatalf("tiers not exercised: wheel path holds %d in the wheel, overflow path %d in the heap; want %d each",
			viaWheel.inWheel, len(viaHeap.heap), len(seq))
	}
	wheelOrder := popAll(t, &viaWheel, first)
	heapOrder := popAll(t, &viaHeap, 0)

	if len(heapOrder) != len(wheelOrder) {
		t.Fatalf("lengths differ: overflow %d, wheel %d", len(heapOrder), len(wheelOrder))
	}
	for i := range heapOrder {
		if heapOrder[i] != wheelOrder[i] {
			t.Fatalf("pop %d: overflow path returned %d, wheel path %d — paths diverge",
				i, heapOrder[i], wheelOrder[i])
		}
	}
}

// TestSchedulerCycleSplitAcrossTiers: one cycle's events scheduled first
// into the overflow heap (while far ahead) and then into the wheel (once
// near) still pop in scheduling order.
func TestSchedulerCycleSplitAcrossTiers(t *testing.T) {
	const target = wheelSpan + 100
	var s scheduler
	s.schedule(event{at: target, blk: 0}, 0) // heap: a span or more ahead
	s.schedule(event{at: 200, blk: 1}, 0)    // wheel
	var got event
	if !s.popBefore(201, &got) || got.blk != 1 {
		t.Fatalf("popped %d, want the near event 1", got.blk)
	}
	if s.popBefore(target, &got) {
		t.Fatalf("popBefore(%d) popped event %d due at %d", target, got.blk, got.at)
	}
	// The wheel now starts at cycle 200, so target is within its span.
	s.schedule(event{at: target, blk: 2}, 200)
	s.schedule(event{at: target, blk: 3}, 200)
	if s.inWheel != 2 || len(s.heap) != 1 {
		t.Fatalf("tiers: %d in the wheel, %d in the heap; want 2 and 1", s.inWheel, len(s.heap))
	}
	order := popAll(t, &s, 200)
	want := []uint64{0, 2, 3}
	if !slices.Equal(order, want) {
		t.Fatalf("cycle %d popped %v, want %v", target, order, want)
	}
}

// TestSchedulerRebasesAfterIdleGap: once the wheel drains, scheduling far
// past its old span re-bases it at the current cycle instead of spilling
// into the overflow heap.
func TestSchedulerRebasesAfterIdleGap(t *testing.T) {
	var s scheduler
	s.schedule(event{at: 10, blk: 0}, 0)
	popAll(t, &s, 0)
	const now = 100 * wheelSpan
	s.schedule(event{at: now + 5, blk: 1}, now)
	s.schedule(event{at: now + wheelSpan - 1, blk: 2}, now)
	if s.inWheel != 2 || len(s.heap) != 0 {
		t.Fatalf("after the gap: %d in the wheel, %d in the heap; want 2 and 0", s.inWheel, len(s.heap))
	}
	if order := popAll(t, &s, now); !slices.Equal(order, []uint64{1, 2}) {
		t.Fatalf("popped %v, want [1 2]", order)
	}
}

// refScheduler is the obviously correct reference: a flat list scanned for
// the (at, seq) minimum on every pop.
type refScheduler struct {
	evs []event
	seq uint64
}

func (r *refScheduler) schedule(at int64, id uint64) {
	r.evs = append(r.evs, event{at: at, seq: r.seq, blk: arch.BlockAddr(id)})
	r.seq++
}

// popBefore removes and returns the (at, seq)-earliest event if it is due
// before end; otherwise it reports false and keeps every event.
func (r *refScheduler) popBefore(end int64) (event, bool) {
	if len(r.evs) == 0 {
		return event{}, false
	}
	best := 0
	for i := 1; i < len(r.evs); i++ {
		if before(&r.evs[i], &r.evs[best]) {
			best = i
		}
	}
	ev := r.evs[best]
	if ev.at >= end {
		return event{}, false
	}
	r.evs = append(r.evs[:best], r.evs[best+1:]...)
	return ev, true
}

// TestSchedulerRandomizedAgainstReference is the fuzz-style invariant
// test: a long random interleaving of schedules (some due at the current
// cycle, some in the future) and bounded pops must match the reference
// implementation event for event — including which pops find nothing due
// before their bound.
func TestSchedulerRandomizedAgainstReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s scheduler
		var ref refScheduler
		now := int64(0)
		nextID := uint64(0)
		var got event

		for step := 0; step < 20000; step++ {
			if s.pending() == 0 || rng.Intn(3) != 0 {
				// Schedule 1–4 events: mostly future, sometimes due now —
				// exactly the mix the engine produces (wakeSM posts at the
				// current cycle, memory latencies post into the future).
				n := 1 + rng.Intn(4)
				for i := 0; i < n; i++ {
					at := now
					if rng.Intn(4) != 0 {
						at += int64(rng.Intn(100))
					}
					s.schedule(event{at: at, blk: arch.BlockAddr(nextID)}, now)
					ref.schedule(at, nextID)
					nextID++
				}
				continue
			}
			// Bound most pops by a window end, as the replay loop does.
			end := int64(noEvent)
			if rng.Intn(4) != 0 {
				end = now + int64(rng.Intn(40))
			}
			ok := s.popBefore(end, &got)
			want, wantOK := ref.popBefore(end)
			if ok != wantOK {
				t.Fatalf("seed %d step %d: popBefore(%d) reported %v, reference %v", seed, step, end, ok, wantOK)
			}
			if !ok {
				if s.pending() != len(ref.evs) {
					t.Fatalf("seed %d step %d: a refused pop left %d events, reference %d", seed, step, s.pending(), len(ref.evs))
				}
				continue
			}
			if got.blk != want.blk || got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d step %d: popped (id %d, at %d, seq %d), reference (id %d, at %d, seq %d)",
					seed, step, got.blk, got.at, got.seq, want.blk, want.at, want.seq)
			}
			if got.at < now {
				t.Fatalf("seed %d: time ran backwards (%d < %d)", seed, got.at, now)
			}
			now = got.at
		}
		// Drain both completely.
		for s.popBefore(noEvent, &got) {
			want, _ := ref.popBefore(noEvent)
			if got.blk != want.blk {
				t.Fatalf("seed %d drain: popped %d, reference %d", seed, got.blk, want.blk)
			}
		}
		if len(ref.evs) != 0 || !s.empty() {
			t.Fatalf("seed %d: drained with %d events left, reference %d", seed, s.pending(), len(ref.evs))
		}
	}
}

// steadyTrace is a memory-heavy workload for the allocation tests and
// benchmarks: many warps mixing loads (spanning L1/L2/DRAM and, under a
// plan, the replica copy path), compute, and stores.
func steadyTrace() *simt.KernelTrace {
	rng := rand.New(rand.NewSource(9))
	var warps [][]simt.Instr
	for w := 0; w < 64; w++ {
		var is []simt.Instr
		for i := 0; i < 40; i++ {
			is = append(is, load(1, 0, arch.BlockAddr(rng.Intn(1<<13))), compute(int32(1+rng.Intn(4))))
		}
		is = append(is, store(2, 1, arch.BlockAddr(1<<15+w)))
		warps = append(warps, is)
	}
	return mkTrace(4, warps...)
}

// exposureConfig is the Fig. 8 hierarchy the exposure replays run on:
// Table I with a 2 KB L1 and a 32 KB L2 per channel.
func exposureConfig() arch.Config {
	cfg := arch.Default()
	cfg.L1.SizeBytes = 2 * 1024
	cfg.L2.SizeBytes = 32 * 1024
	return cfg
}

// exposurePlan and exposureBlocks shape the steady trace's exposure
// replay: lazy duplication with replicas 1<<16 blocks above their
// primaries, logged into a BlockLog that covers every block the replay
// touches, so recording never grows it.
var exposurePlan = testPlan{copies: 2, lazy: true, offset: 1 << 16}

const exposureBlocks = 1 << 17

// newSteadyEngine builds an engine on cfg under plan, with an
// exposure-sized BlockLog attached when logged.
func newSteadyEngine(tb testing.TB, cfg arch.Config, plan ProtectionPlan, logged bool) *Engine {
	e, err := New(cfg, plan)
	if err != nil {
		tb.Fatal(err)
	}
	if logged {
		e.Blocks = NewBlockLog(exposureBlocks)
	}
	return e
}

// TestRunKernelSteadyStateZeroAllocs pins the allocation contract: after a
// warm-up replay, RunKernel performs zero heap allocations per replay —
// for the baseline, for both protection schemes, and for the exposure
// replay on the Fig. 8 hierarchy with a BlockLog attached. (The warm-up
// grows the event heap, pools, slabs, and scratch buffers to the kernel's
// working set; every later replay reuses them.)
func TestRunKernelSteadyStateZeroAllocs(t *testing.T) {
	tr := steadyTrace()
	cases := []struct {
		name   string
		cfg    arch.Config
		plan   ProtectionPlan
		logged bool
	}{
		{"baseline", arch.Default(), nil, false},
		{"duplication-lazy", arch.Default(), testPlan{copies: 2, lazy: true, offset: 1 << 20}, false},
		{"triplication", arch.Default(), testPlan{copies: 3, lazy: false, offset: 1 << 20}, false},
		{"exposure", exposureConfig(), exposurePlan, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newSteadyEngine(t, tc.cfg, tc.plan, tc.logged)
			// Warm-up: size every pool and buffer.
			if _, err := e.RunKernel(tr); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(5, func() {
				if _, err := e.RunKernel(tr); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("steady-state RunKernel allocates %.1f objects per replay, want 0", avg)
			}
			if tc.logged {
				if missed, _ := e.Blocks.Misses(); len(missed) == 0 {
					t.Error("the exposure replay logged no L1 misses")
				}
			}
		})
	}
}

// runSteadyBenchmark replays the steady trace b.N times on one engine —
// the fault-injection campaign and Fig. 7 sweep pattern whose serial cost
// dominates suite wall-clock.
func runSteadyBenchmark(b *testing.B, e *Engine) {
	tr := steadyTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunKernel(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunKernel is the canonical steady-state replay benchmark the
// BENCH_timing.json baseline records (see scripts/bench.sh).
func BenchmarkRunKernel(b *testing.B) {
	runSteadyBenchmark(b, newSteadyEngine(b, arch.Default(), nil, false))
}

// BenchmarkRunKernelDetection replays under lazy duplication: every
// protected L1 miss fans out one extra copy transaction.
func BenchmarkRunKernelDetection(b *testing.B) {
	runSteadyBenchmark(b, newSteadyEngine(b, arch.Default(), testPlan{copies: 2, lazy: true, offset: 1 << 20}, false))
}

// BenchmarkRunKernelCorrection replays under eager triplication: two extra
// copies per protected miss, completion on the last arrival.
func BenchmarkRunKernelCorrection(b *testing.B) {
	runSteadyBenchmark(b, newSteadyEngine(b, arch.Default(), testPlan{copies: 3, lazy: false, offset: 1 << 20}, false))
}

// BenchmarkRunKernelExposure is the exposure replay behind Fig. 8's miss
// weights and the transient model's store timeline: lazy duplication on
// the Fig. 8 hierarchy with a BlockLog attached.
func BenchmarkRunKernelExposure(b *testing.B) {
	runSteadyBenchmark(b, newSteadyEngine(b, exposureConfig(), exposurePlan, true))
}

// msgBefore is the message commit order, (sendAt, srcKey, srcSeq), as a
// comparison function for slices.SortFunc.
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

// TestSortMessagesMatchesSortFunc: the inlined insertion sort puts every
// window, short or long, nearly sorted or shuffled, in the order
// slices.SortFunc gives under msgBefore — the commit order. Send cycles
// and source keys repeat, so the tie-breaks decide.
func TestSortMessagesMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(256)
		ms := make([]message, n)
		for i := range ms {
			ms[i] = message{sendAt: int64(i/4 + rng.Intn(6)), srcKey: int32(rng.Intn(8)), srcSeq: uint64(i)}
		}
		if trial%3 == 0 {
			rng.Shuffle(n, func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
		}
		want := slices.Clone(ms)
		slices.SortFunc(want, msgBefore)
		sortMessages(ms)
		if !slices.Equal(ms, want) {
			t.Fatalf("trial %d: %d messages sorted out of commit order", trial, n)
		}
	}
}
