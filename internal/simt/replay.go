// Capture and replay of a reference (fault-free) execution. A CaptureLog
// records, warp by warp, every load the application issues (site, indices,
// the raw loaded words, coalesced blocks) and every store it commits. It
// keeps one shape from capture to replay (record.go): per kernel launch,
// pointer-free arenas that fixed-size records address by offset, with a
// constant-stride index vector kept as (base, stride, lanes). The Driver
// appends into them and clips them at launch end, the golden artifact
// persists each arena as its little-endian bytes, and batched replay
// reads them in place through a Warp view, taking launch i's kernel from
// the application. The recorded load values stay: a clean lane is served
// from them as a sequential read, where serving it from the lane's fork
// would gather one word at a time. Both element types load through one
// word-level path (WarpCtx.loadVector and loadBroadcast), so a recording
// is the same whether a kernel reads float32 or int32 data. Campaign batching builds on two properties of the
// lockstep execution model:
//
//   - Warps run strictly in launch order, so the recorded per-warp load
//     and store sequences fully determine a fault-free run.
//   - A warp whose loads read only words that hold their golden values
//     behaves bit-identically to the recording — its loads return the
//     recorded values and its stores commit the recorded values — so a
//     faulty run only needs to *execute* the warps that read a divergent
//     word; every other warp is reproduced by its recorded stores.
//
// A lane's divergence is a DirtySet of 32-bit words, kept under one
// invariant: a word outside the set holds the value the golden run holds at
// the same point in the serial warp order. The set starts at the run's
// fault words and only grows: an executed warp adds exactly the words whose
// committed value differs from the recorded store. A per-block bitset
// filters first; words are checked only inside dirty blocks.
//
// LaneReplay carries the same argument into the executed warps themselves:
// while the warp's load/store sequence still matches the recording
// position-for-position (same sites, same indices), each lane of a load
// whose words are clean is served straight from the recorded word, and
// only dirty words are read from memory through the scheme's reader. The
// first mismatch in the sequence (a fault-corrupted index changed the
// control flow or an address) desyncs the warp: the rest of it runs on the
// real memory path, and every in-bounds word it stores from then on is
// marked dirty, whatever its value. When the warp ends, every word the
// recording stores from the first unmatched store on is marked dirty too,
// also when the warp simply issued fewer stores than recorded. That
// resyncs the lane: after the warp only words the lane or the golden warp
// wrote can differ, and all of them are now in the set, so the next warp
// goes back through the word gate (ReadsDirty).
//
// The batch executor (internal/experiments/batch.go) advances one shared
// golden-progress image per claim through each recorded warp's stores, and
// its lanes are copy-on-write forks of that image; see there for the rules
// that keep a lane's private blocks apart from the shared image.
package simt

import (
	"math"
	"math/bits"
	"slices"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// BlockSet is a dense bitset over block indices.
type BlockSet struct {
	bits []uint64
}

// NewBlockSet returns a set sized for a memory of nblocks blocks.
func NewBlockSet(nblocks int) *BlockSet {
	return &BlockSet{bits: make([]uint64, (nblocks+63)/64)}
}

// Add inserts one block.
func (s *BlockSet) Add(b arch.BlockAddr) {
	s.bits[uint(b)/64] |= 1 << (uint(b) % 64)
}

// Has reports membership.
func (s *BlockSet) Has(b arch.BlockAddr) bool {
	return s.bits[uint(b)/64]&(1<<(uint(b)%64)) != 0
}

// AnyOf reports whether any block of the slice is in the set.
func (s *BlockSet) AnyOf(blocks []arch.BlockAddr) bool {
	for _, b := range blocks {
		if s.Has(b) {
			return true
		}
	}
	return false
}

// DirtySet is a campaign lane's divergence from the golden run, tracked
// per 32-bit word. Its invariant: a word outside the set holds the value
// the golden run holds at the same point in the serial warp order. Words
// are only ever added, never removed. The block bitset is the cheap first
// filter — a block is in it iff at least one of its words is dirty — and
// masks holds each block's dirty words (bit i is word i of the 128 B
// block).
type DirtySet struct {
	blocks BlockSet
	masks  []uint32
}

// NewDirtySet returns an empty set sized for a memory of nblocks blocks.
func NewDirtySet(nblocks int) *DirtySet {
	return &DirtySet{blocks: *NewBlockSet(nblocks), masks: make([]uint32, nblocks)}
}

// Reset empties the set, touching only the blocks it holds, so a pooled
// set is cheap to reuse.
func (d *DirtySet) Reset() {
	for i, w := range d.blocks.bits {
		for ; w != 0; w &= w - 1 {
			d.masks[i*64+bits.TrailingZeros64(w)] = 0
		}
		d.blocks.bits[i] = 0
	}
}

// wordBit is the mask bit of the word at a within its block.
func wordBit(a arch.Addr) uint32 {
	return 1 << (uint(a) / arch.WordBytes % arch.WordsPerBlock)
}

// AddWord marks the 32-bit word at a dirty.
func (d *DirtySet) AddWord(a arch.Addr) {
	b := a.Block()
	d.blocks.Add(b)
	d.masks[b] |= wordBit(a)
}

// AddBlock marks every word of block b dirty.
func (d *DirtySet) AddBlock(b arch.BlockAddr) {
	d.blocks.Add(b)
	d.masks[b] = ^uint32(0)
}

// HasWord reports whether the word at a is dirty.
func (d *DirtySet) HasWord(a arch.Addr) bool {
	return d.masks[a.Block()]&wordBit(a) != 0
}

// AnyBlock reports whether any block of the slice holds a dirty word.
func (d *DirtySet) AnyBlock(blocks []arch.BlockAddr) bool {
	return d.blocks.AnyOf(blocks)
}

// LaneReplay is the per-warp replay state of one campaign lane executing a
// recorded warp for real (Driver.RunWarp). It walks the warp's recorded
// load/store sequence in lockstep with the execution: as long as every
// issued instruction matches the recording (same site, object, and
// indices), each lane of a load whose words are all outside Dirty is
// served from the recorded value, and each store adds to Dirty exactly the
// words whose committed value differs from the recorded one. The first
// sequence mismatch desyncs the warp and stops all serving; the warp's
// remaining stores, and at its end the recording's unmatched ones, then
// mark every word they write dirty.
type LaneReplay struct {
	// w is the warp being replayed.
	w Warp
	// Dirty is the lane's divergent-word set, shared across the lane's
	// warps: the batch executor seeds it, and executed warps grow it.
	Dirty *DirtySet
	// Bufs are the memory's buffers indexed by ID, resolving recorded
	// indices to word addresses.
	Bufs []*mem.Buffer

	loadCur  int
	storeCur int
	// desync records that the last executed warp left the recorded
	// sequence (a fault corrupted an index or branch) or committed fewer
	// stores than recorded. Its writes were then bounded by marking dirty
	// every word it or the recording stored after the mismatch.
	desync bool
	// idx holds an affine record's index vector (Warp.Index).
	idx [arch.WarpSize]int32
}

// reset rebinds the replay state to a new warp, so one LaneReplay serves
// every warp a lane executes.
func (rp *LaneReplay) reset(w *Warp) {
	rp.w = *w
	rp.loadCur = 0
	rp.storeCur = 0
	rp.desync = false
}

// finish closes an executed warp. A warp that stayed in sync and
// committed every recorded store already marked each word it made
// divergent. Otherwise every word the recording stores from the first
// unmatched store on is marked dirty: the lane may have left it holding a
// value other than the golden one.
func (rp *LaneReplay) finish() {
	if !rp.desync && rp.storeCur == len(rp.w.Stores) {
		return
	}
	rp.desync = true
	for i := rp.storeCur; i < len(rp.w.Stores); i++ {
		rec := &rp.w.Stores[i]
		buf := rp.Bufs[rec.BufID]
		for _, idx := range rp.w.Index(rec, &rp.idx) {
			if idx != InactiveLane {
				rp.Dirty.AddWord(buf.ElemAddr(int(idx)))
			}
		}
	}
}

// wordDirty reports whether reading element idx of buf can observe the
// lane's divergence: its word is dirty, or the index falls outside the
// buffer.
func (rp *LaneReplay) wordDirty(buf *mem.Buffer, idx int32) bool {
	a := buf.ElemAddr(int(idx))
	return idx < 0 || !buf.Contains(a) || rp.Dirty.HasWord(a)
}

// ReadsDirty reports whether any recorded load of w reads a dirty word:
// vector loads at each active lane's index, broadcast loads at their one
// index. A warp that reads no dirty word behaves bit-identically to the
// recording, so the executor may reproduce it by applying its recorded
// stores. The block bitset filters first, at warp
// and then at load granularity.
func (rp *LaneReplay) ReadsDirty(w *Warp) bool {
	if !rp.Dirty.AnyBlock(w.Footprint) {
		return false
	}
	for i := range w.Loads {
		rec := &w.Loads[i]
		if !rp.Dirty.AnyBlock(w.Blocks(rec)) {
			continue
		}
		buf := rp.Bufs[rec.BufID]
		if rec.Kind == Broadcast {
			if rp.wordDirty(buf, rec.Base) {
				return true
			}
			continue
		}
		for _, idx := range w.Index(rec, &rp.idx) {
			if idx != InactiveLane && rp.wordDirty(buf, idx) {
				return true
			}
		}
	}
	return false
}

// sameIndex reports whether an issued index vector (one index per warp
// lane) is rec's: its recorded lanes' indices, then inactive lanes.
func (rp *LaneReplay) sameIndex(rec *Access, issued []int32) bool {
	recIdx := rp.w.Index(rec, &rp.idx)
	return slices.Equal(recIdx, issued[:len(recIdx)]) && inactive(issued[len(recIdx):])
}

// inactive reports whether every lane of idx is InactiveLane.
func inactive(idx []int32) bool {
	for _, v := range idx {
		if v != InactiveLane {
			return false
		}
	}
	return true
}

// serveVector matches the next recorded load (position, site, object,
// vector-ness and index vector) against an issued vector load of n lanes.
// When every touched block is clean, it serves the recorded words into dst
// in the same pass that verifies the index vector and returns (rec, true).
// Otherwise the caller reads memory: a nil record means the lane desynced
// and every lane must be read; a non-nil record (sequence verified, cursor
// advanced) means only the lanes whose words are dirty must be read, the
// rest being served from its values.
func (rp *LaneReplay) serveVector(pc uint16, bufID int16, idx []int32, n int, dst []uint32) (*Access, bool) {
	if rp.desync || rp.loadCur >= len(rp.w.Loads) {
		rp.desync = true
		return nil, false
	}
	rec := &rp.w.Loads[rp.loadCur]
	issued := idx[:n]
	if rec.PC != pc || rec.BufID != bufID || rec.Kind == Broadcast {
		rp.desync = true
		return nil, false
	}
	if rp.Dirty.AnyBlock(rp.w.Blocks(rec)) {
		if !rp.sameIndex(rec, issued) {
			rp.desync = true
			return nil, false
		}
		rp.loadCur++
		return rec, false
	}
	// Reslicing to the recorded lanes lets the compiler drop the per-lane
	// bounds checks in the loop below.
	recIdx := rp.w.Index(rec, &rp.idx)
	vals, out := rp.w.Vals(rec)[:len(recIdx)], dst[:len(recIdx)]
	if !inactive(issued[len(recIdx):]) {
		rp.desync = true
		return nil, false
	}
	for i, v := range issued[:len(recIdx)] {
		if recIdx[i] != v {
			rp.desync = true
			return nil, false
		}
		if v != InactiveLane {
			out[i] = vals[i]
		}
	}
	rp.loadCur++
	return rec, true
}

// serveBroadcast is the vector serve for warp-uniform loads: it returns
// the recorded word when the load is in sync and its word is clean, and
// false when the caller must read memory.
func (rp *LaneReplay) serveBroadcast(pc uint16, buf *mem.Buffer, bidx int32) (uint32, bool) {
	if rp.desync || rp.loadCur >= len(rp.w.Loads) {
		rp.desync = true
		return 0, false
	}
	rec := &rp.w.Loads[rp.loadCur]
	if rec.PC != pc || rec.BufID != int16(buf.ID) || rec.Kind != Broadcast || rec.Base != bidx {
		rp.desync = true
		return 0, false
	}
	rp.loadCur++
	if rp.Dirty.AnyBlock(rp.w.Blocks(rec)) && rp.wordDirty(buf, bidx) {
		return 0, false
	}
	return rp.w.Vals(rec)[0], true
}

// noteStore matches the next recorded store against an issued store and,
// while the lane stays in sync, adds to Dirty every word whose committed
// value differs from the recorded one — at commit time, so later loads of
// the same warp already see it. The store itself always executes on real
// memory. Once the sequence no longer matches, the recording cannot bound
// the store, so every in-bounds word it writes is marked dirty (an
// out-of-bounds one aborts the warp).
func (rp *LaneReplay) noteStore(pc uint16, buf *mem.Buffer, idx []int32, n int, src []float32) {
	issued := idx[:n]
	if rec := rp.storeMatches(pc, buf, issued); rec != nil {
		recVals := rp.w.Vals(rec)
		for i, v := range issued[:len(recVals)] {
			if v != InactiveLane && math.Float32bits(src[i]) != recVals[i] {
				rp.Dirty.AddWord(buf.ElemAddr(int(v)))
			}
		}
		rp.storeCur++
		return
	}
	rp.desync = true
	for _, v := range issued {
		if a := buf.ElemAddr(int(v)); v != InactiveLane && v >= 0 && buf.Contains(a) {
			rp.Dirty.AddWord(a)
		}
	}
}

// storeMatches returns the next recorded store if an in-sync lane issued
// it: same position, site, object and index vector. Otherwise it returns
// nil.
func (rp *LaneReplay) storeMatches(pc uint16, buf *mem.Buffer, issued []int32) *Access {
	if rp.desync || rp.storeCur >= len(rp.w.Stores) {
		return nil
	}
	rec := &rp.w.Stores[rp.storeCur]
	if rec.PC != pc || rec.BufID != int16(buf.ID) || !rp.sameIndex(rec, issued) {
		return nil
	}
	return rec
}
