package dram

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

func newCtl(t *testing.T) *Controller {
	t.Helper()
	c, err := NewController(arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// drain advances time until the controller is idle, returning completions in
// service order.
func drain(c *Controller) []Completion {
	var all []Completion
	now := int64(0)
	for i := 0; i < 1_000_000; i++ {
		done := c.Advance(now)
		all = append(all, done...)
		if c.QueueLen() == 0 {
			return all
		}
		now++
	}
	return all
}

func TestSingleRequestLatency(t *testing.T) {
	c := newCtl(t)
	c.Enqueue(Request{Block: 0, ID: 1}, 0)
	done := c.Advance(0)
	if len(done) != 1 {
		t.Fatalf("completions = %d, want 1", len(done))
	}
	// Closed bank: tRCD + tCL + tBurst, scaled 924→1400 MHz (12→19, 4→7).
	want := int64(19 + 19 + 7)
	if done[0].At != want {
		t.Errorf("completion at %d, want %d (tRCD+tCL+tBurst in core cycles)", done[0].At, want)
	}
	if c.Stats.RowEmpty != 1 {
		t.Errorf("RowEmpty = %d, want 1", c.Stats.RowEmpty)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	cfg := arch.Default()
	// Same bank, same row: blocks 0 and NumMemChannels*? — block b maps to
	// bank (b/ch)%banks, row (b/ch)/banks/16. Blocks 0 and 6 (one channel
	// apart*ch=6) → local 0 and 1 → banks 0 and 1. For same bank use
	// b=0 and b=6*16=96 → local 16 → bank 0, row 0 (16 blocks per row).
	c := newCtl(t)
	sameRow := arch.BlockAddr(uint64(cfg.NumMemChannels) * 15) // local 15, bank 15? no: 15%16=15.
	_ = sameRow
	// local index l maps to bank l%16 and row l/16/16. Row 0 of bank 0
	// holds locals {0, 16·16=256…}? No: row index = l/16/16 → locals 0..255
	// span banks 0..15 with rows 0 (l<256). Same bank 0 row 0: locals 0,16,32…
	b0 := arch.BlockAddr(0)                         // local 0, bank 0, row 0
	b1 := arch.BlockAddr(16 * cfg.NumMemChannels)   // local 16, bank 0, row 0
	bf := arch.BlockAddr(4096 * cfg.NumMemChannels) // local 4096, bank 0, row 16
	c.Enqueue(Request{Block: b0, ID: 1}, 0)
	done := drain(c)
	first := done[0].At

	c.Enqueue(Request{Block: b1, ID: 2}, first)
	done = c.Advance(first)
	if len(done) != 1 {
		t.Fatalf("row-hit not served")
	}
	hitLat := done[0].At - first
	if c.Stats.RowHits != 1 {
		t.Fatalf("RowHits = %d, want 1", c.Stats.RowHits)
	}

	now := done[0].At
	c.Enqueue(Request{Block: bf, ID: 3}, now)
	done = c.Advance(now)
	if len(done) != 1 {
		t.Fatalf("conflict not served")
	}
	confLat := done[0].At - now
	if c.Stats.RowMisses != 1 {
		t.Fatalf("RowMisses = %d, want 1", c.Stats.RowMisses)
	}
	if hitLat >= confLat {
		t.Errorf("row hit latency %d !< conflict latency %d", hitLat, confLat)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	cfg := arch.Default()
	c := newCtl(t)
	// Open row 0 of bank 0.
	c.Enqueue(Request{Block: 0, ID: 1}, 0)
	done := drain(c)
	now := done[0].At
	// Older request to a different row of bank 0, younger row-hit.
	conflict := arch.BlockAddr(4096 * cfg.NumMemChannels) // bank 0, row 16
	hit := arch.BlockAddr(16 * cfg.NumMemChannels)        // bank 0, row 0
	c.Enqueue(Request{Block: conflict, ID: 2}, now)
	c.Enqueue(Request{Block: hit, ID: 3}, now)
	all := append(c.Advance(now), drain(c)...)
	if len(all) != 2 {
		t.Fatalf("served %d, want 2", len(all))
	}
	if all[0].Req.ID != 3 {
		t.Errorf("first served ID = %d, want the row-hit (3)", all[0].Req.ID)
	}
}

func TestBankParallelismBeatsSameBank(t *testing.T) {
	cfg := arch.Default()
	// Two requests to different banks should finish sooner than two
	// row-conflicting requests to the same bank.
	par := newCtl(t)
	par.Enqueue(Request{Block: 0, ID: 1}, 0)                                  // bank 0
	par.Enqueue(Request{Block: arch.BlockAddr(cfg.NumMemChannels), ID: 2}, 0) // bank 1
	parDone := drain(par)

	ser := newCtl(t)
	ser.Enqueue(Request{Block: 0, ID: 1}, 0)
	ser.Enqueue(Request{Block: arch.BlockAddr(4096 * cfg.NumMemChannels), ID: 2}, 0) // bank 0, row 16
	serDone := drain(ser)

	if last(parDone) >= last(serDone) {
		t.Errorf("parallel banks finished at %d, same-bank conflicts at %d; want parallel faster",
			last(parDone), last(serDone))
	}
}

func last(cs []Completion) int64 {
	var m int64
	for _, c := range cs {
		if c.At > m {
			m = c.At
		}
	}
	return m
}

func TestBusSerializesBursts(t *testing.T) {
	cfg := arch.Default()
	c := newCtl(t)
	// 4 requests to 4 different banks, all at t=0: bank work overlaps but
	// bursts serialize, so completions must be spaced ≥ tBurst apart.
	for i := 0; i < 4; i++ {
		c.Enqueue(Request{Block: arch.BlockAddr(i * cfg.NumMemChannels), ID: uint64(i)}, 0)
	}
	done := drain(c)
	if len(done) != 4 {
		t.Fatalf("served %d, want 4", len(done))
	}
	tBurst := int64(7) // 4 mem cycles at 1400/924
	for i := 1; i < 4; i++ {
		if done[i].At-done[i-1].At < tBurst {
			t.Errorf("bursts %d and %d overlap: %d then %d", i-1, i, done[i-1].At, done[i].At)
		}
	}
}

func TestNoStarvationUnderRowHitStream(t *testing.T) {
	cfg := arch.Default()
	c := newCtl(t)
	// Open row 0 bank 0, then enqueue one conflicting request followed by a
	// long stream of row hits. The bypass cap must let the conflict through.
	c.Enqueue(Request{Block: 0, ID: 100}, 0)
	start := drain(c)[0].At
	conflict := arch.BlockAddr(4096 * cfg.NumMemChannels)
	c.Enqueue(Request{Block: conflict, ID: 999}, start)
	for i := 0; i < 100; i++ {
		// Locals 16·(i%16) all map to bank 0, row 0: a pure row-hit stream
		// competing with the older row-conflict request on the same bank.
		local := 16 * (i % 16)
		c.Enqueue(Request{Block: arch.BlockAddr(local * cfg.NumMemChannels), ID: uint64(i)}, start)
	}
	done := drain(c)
	pos := -1
	for i, d := range done {
		if d.Req.ID == 999 {
			pos = i
		}
	}
	if pos == -1 {
		t.Fatal("conflicting request starved")
	}
	if pos > 2*maxRowHitBypass {
		t.Errorf("conflicting request served at position %d, cap is %d bypasses", pos, maxRowHitBypass)
	}
}

// TestAllRequestsComplete is the liveness property: any request mix
// eventually completes exactly once.
func TestAllRequestsComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := NewController(arch.Default())
		if err != nil {
			return false
		}
		n := 50 + rng.Intn(100)
		for i := 0; i < n; i++ {
			c.Enqueue(Request{Block: arch.BlockAddr(rng.Intn(1 << 16)), ID: uint64(i)}, int64(rng.Intn(50)))
		}
		done := drain(c)
		if len(done) != n {
			return false
		}
		seen := make(map[uint64]bool, n)
		for _, d := range done {
			if seen[d.Req.ID] {
				return false
			}
			seen[d.Req.ID] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRowHitRateStreamVsRandom(t *testing.T) {
	cfg := arch.Default()
	stream, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential blocks on one channel: consecutive locals walk banks; use
	// stride ch*banks so successive requests stay in bank 0 and walk rows
	// slowly (16 per row → 15/16 hits after the first).
	for i := 0; i < 256; i++ {
		stream.Enqueue(Request{Block: arch.BlockAddr(i * cfg.NumMemChannels * cfg.DRAMBanksPerChannel), ID: uint64(i)}, int64(i))
	}
	drain(stream)

	random, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 256; i++ {
		random.Enqueue(Request{Block: arch.BlockAddr(rng.Intn(1 << 20)), ID: uint64(i)}, int64(i))
	}
	drain(random)

	if stream.Stats.RowHitRate() <= random.Stats.RowHitRate() {
		t.Errorf("streaming row-hit rate %.2f !> random %.2f",
			stream.Stats.RowHitRate(), random.Stats.RowHitRate())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := arch.Default()
	bad.DRAMBanksPerChannel = 0
	if _, err := NewController(bad); err == nil {
		t.Error("zero banks accepted")
	}
	bad = arch.Default()
	bad.MemClockMHz = 0
	if _, err := NewController(bad); err == nil {
		t.Error("zero mem clock accepted")
	}
}

func TestStatsAvgLatency(t *testing.T) {
	c := newCtl(t)
	if got := c.Stats.AvgLatency(); got != 0 {
		t.Errorf("empty AvgLatency = %v, want 0", got)
	}
	c.Enqueue(Request{Block: 0, ID: 1}, 0)
	drain(c)
	if got := c.Stats.AvgLatency(); got != 45 {
		t.Errorf("AvgLatency = %v, want 45", got)
	}
}

// refController is the FR-FCFS selection as the controller first shipped
// it, kept as the oracle for the early-exit scan: every scheduling attempt
// scans the whole queue, decodes each entry's bank and row, and takes the
// oldest eligible request by sequence number unless the first eligible row
// hit may bypass it. It shares only the service step (Controller.serve)
// with the controller under test, through a controller of its own whose
// queue it never uses.
type refController struct {
	c         *Controller
	queue     []refPending
	seq       uint64
	bypassRun int
	// bypasses and capped count picks where a younger row hit went ahead
	// of the oldest request, and where the cap sent the oldest through
	// although a younger row hit was waiting.
	bypasses, capped int
}

type refPending struct {
	req     Request
	arrival int64
	seq     uint64
}

func (r *refController) Enqueue(req Request, now int64) {
	r.queue = append(r.queue, refPending{req: req, arrival: now, seq: r.seq})
	r.seq++
}

func (r *refController) Advance(now int64) []Completion {
	var out []Completion
	for len(r.queue) > 0 {
		comp, ok := r.scheduleOne(now)
		if !ok {
			break
		}
		out = append(out, comp)
	}
	return out
}

func (r *refController) scheduleOne(now int64) (Completion, bool) {
	c := r.c
	oldest, bestHit := -1, -1
	var oldestStart, bestHitStart int64
	var oldestSeq uint64
	for i := range r.queue {
		p := &r.queue[i]
		if p.arrival > now {
			continue
		}
		bk, row := c.bankRow(p.req.Block)
		start := p.arrival
		if c.banks[bk].busyUntil > start {
			start = c.banks[bk].busyUntil
		}
		if start > now {
			continue
		}
		if oldest == -1 || p.seq < oldestSeq {
			oldest, oldestSeq, oldestStart = i, p.seq, start
		}
		if c.banks[bk].openRow == row && bestHit == -1 {
			bestHit, bestHitStart = i, start
		}
	}
	if oldest == -1 {
		return Completion{}, false
	}
	pick, start := oldest, oldestStart
	switch {
	case bestHit != -1 && bestHit != oldest && r.bypassRun < maxRowHitBypass:
		pick, start = bestHit, bestHitStart
		r.bypassRun++
		r.bypasses++
	case bestHit != -1 && bestHit != oldest:
		r.capped++
		r.bypassRun = 0
	default:
		r.bypassRun = 0
	}
	p := r.queue[pick]
	r.queue = append(r.queue[:pick], r.queue[pick+1:]...)
	bk, row := c.bankRow(p.req.Block)
	return c.serve(pending{req: p.req, arrival: p.arrival, bank: bk, row: row}, start), true
}

func (r *refController) NextStartTime() int64 {
	next := int64(-1)
	for i := range r.queue {
		p := &r.queue[i]
		bk, _ := r.c.bankRow(p.req.Block)
		start := p.arrival
		if r.c.banks[bk].busyUntil > start {
			start = r.c.banks[bk].busyUntil
		}
		if next == -1 || start < next {
			next = start
		}
	}
	return next
}

// TestFRFCFSEarlyExitMatchesFullScan is the differential check of the
// early-exit selection against refController on randomized queues: the
// same requests, arriving now or in the future, must complete in the same
// order at the same cycles, with the same Stats and NextStartTime after
// every step. Requests crowd a few rows of a few banks, so younger row hits
// bypass older conflicts often enough to run into maxRowHitBypass.
func TestFRFCFSEarlyExitMatchesFullScan(t *testing.T) {
	cfg := arch.Default()
	var bypasses, capped, futureSteps int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newCtl(t)
		ref := refController{c: newCtl(t)}
		block := func() arch.BlockAddr {
			bank, row, col := rng.Intn(3), rng.Intn(3), rng.Intn(16)
			local := (row*16+col)*cfg.DRAMBanksPerChannel + bank
			return arch.BlockAddr(local*cfg.NumMemChannels + rng.Intn(cfg.NumMemChannels))
		}
		now := int64(0)
		id := uint64(0)
		for step := 0; step < 3000; step++ {
			for n := rng.Intn(4); n > 0 && c.QueueLen() < 96; n-- {
				arrival := now
				if rng.Intn(4) == 0 {
					arrival += int64(rng.Intn(80))
				}
				req := Request{Block: block(), ID: id, Write: rng.Intn(5) == 0}
				id++
				c.Enqueue(req, arrival)
				ref.Enqueue(req, arrival)
			}
			switch rng.Intn(3) {
			case 0:
				now++
			case 1:
				if next := ref.NextStartTime(); next > now {
					now = next
				}
			default:
				now += int64(rng.Intn(30))
			}
			for _, p := range ref.queue {
				if p.arrival > now {
					futureSteps++
					break
				}
			}
			got, want := c.Advance(now), ref.Advance(now)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d (cycle %d): served %v, full scan %v", seed, step, now, got, want)
			}
			if c.Stats != ref.c.Stats {
				t.Fatalf("seed %d step %d: stats %+v, full scan %+v", seed, step, c.Stats, ref.c.Stats)
			}
			if g, w := c.NextStartTime(), ref.NextStartTime(); g != w {
				t.Fatalf("seed %d step %d: NextStartTime %d, full scan %d", seed, step, g, w)
			}
		}
		bypasses += ref.bypasses
		capped += ref.capped
	}
	if bypasses == 0 || capped == 0 || futureSteps == 0 {
		t.Fatalf("coverage: %d row-hit bypasses, %d capped picks, %d steps with future arrivals; want all > 0",
			bypasses, capped, futureSteps)
	}
	t.Logf("%d row-hit bypasses, %d capped picks, %d steps with future arrivals", bypasses, capped, futureSteps)
}

func BenchmarkControllerThroughput(b *testing.B) {
	c, err := NewController(arch.Default())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	now := int64(0)
	for i := 0; i < b.N; i++ {
		c.Enqueue(Request{Block: arch.BlockAddr(rng.Intn(1 << 16)), ID: uint64(i)}, now)
		for c.QueueLen() > 32 {
			now++
			c.Advance(now)
		}
	}
}
