// Capture and replay of a reference (fault-free) execution. A CaptureLog
// records, warp by warp, every load the application issues (site, indices,
// loaded values, coalesced blocks) and every store it commits. Campaign
// batching builds on two properties of the lockstep execution model:
//
//   - Warps run strictly in launch order, so the recorded per-warp load
//     and store sequences fully determine a fault-free run.
//   - A warp whose loads read only words that hold their golden values
//     behaves bit-identically to the recording — its loads return the
//     recorded values and its stores commit the recorded values — so a
//     faulty run only needs to *execute* the warps that read a divergent
//     word; every other warp is reproduced by applying the recorded stores.
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
// whose words are clean is served straight from the recorded value, and
// only dirty words are read from memory through the scheme's reader. The
// first mismatch in the sequence (a fault-corrupted index changed the
// control flow or an address) desyncs the lane permanently: the rest of the
// warp runs on the real memory path, and the caller must fall back to full
// execution for the lane's remaining warps, because the recording can no
// longer bound what the lane writes.
package simt

import (
	"math"
	"math/bits"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// CaptureLog is the recorded reference execution of one application: one
// KernelCapture per kernel launch, in launch order.
type CaptureLog struct {
	// Kernels holds one capture per launch, in App.Kernels order.
	Kernels []*KernelCapture
}

// KernelCapture records one kernel launch.
type KernelCapture struct {
	// Kernel is the launched kernel (re-run warp-by-warp during replay).
	Kernel *Kernel
	// Warps holds each warp's record, dense by global warp ID.
	Warps []*WarpCapture
}

// WarpCapture is the full memory behaviour of one warp in the reference
// run: its identity, its loads in issue order, and its stores in commit
// order.
type WarpCapture struct {
	// CTAIdx, WarpInCTA, GlobalWarpID, NumLanes identify the warp exactly
	// as Driver.Run would construct it.
	CTAIdx       arch.Dim3
	WarpInCTA    int
	GlobalWarpID int
	NumLanes     int
	// Loads and Stores are the warp's memory instructions in program order.
	Loads  []LoadRec
	Stores []StoreRec
	// LoadBlocks is the deduplicated union of every load's Blocks in
	// first-touch order — the warp's read footprint, built by the Driver as
	// the warp finishes. A run whose divergent blocks miss this set
	// entirely cannot observe the divergence in this warp.
	LoadBlocks []arch.BlockAddr
}

// LoadRec is one recorded warp-level load.
type LoadRec struct {
	// PC is the static site that issued the load.
	PC uint16
	// BufID is the accessed data object.
	BufID int16
	// Broadcast marks a warp-uniform load (LoadF32Broadcast/LoadI32Broadcast).
	Broadcast bool
	// BIdx is the broadcast element index (broadcast loads only).
	BIdx int32
	// Idx is the per-lane index vector (vector loads only; length NumLanes,
	// InactiveLane for predicated-off lanes).
	Idx []int32
	// Vals are the loaded 32-bit values per lane (vector loads: length
	// NumLanes, undefined at inactive lanes; broadcast loads: length 1).
	Vals []uint32
	// Blocks are the coalesced blocks the load touches.
	Blocks []arch.BlockAddr
}

// StoreRec is one recorded warp-level store.
type StoreRec struct {
	// PC is the static site that issued the store.
	PC uint16
	// BufID is the written data object.
	BufID int16
	// Idx is the per-lane index vector (length NumLanes).
	Idx []int32
	// Vals are the stored 32-bit values per lane (length NumLanes).
	Vals []uint32
	// Blocks are the coalesced blocks the store writes.
	Blocks []arch.BlockAddr
}

// ApproxBytes estimates the log's memory footprint, so callers can bound
// how much capture state they keep per checkpoint.
func (c *CaptureLog) ApproxBytes() int64 {
	var n int64
	for _, kc := range c.Kernels {
		n += 64
		for _, wc := range kc.Warps {
			if wc == nil {
				continue
			}
			n += 96 + int64(len(wc.LoadBlocks))*8
			for i := range wc.Loads {
				r := &wc.Loads[i]
				n += 64 + int64(len(r.Idx))*4 + int64(len(r.Vals))*4 + int64(len(r.Blocks))*8
			}
			for i := range wc.Stores {
				r := &wc.Stores[i]
				n += 64 + int64(len(r.Idx))*4 + int64(len(r.Vals))*4 + int64(len(r.Blocks))*8
			}
		}
	}
	return n
}

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
// recorded warp for real. It walks the warp's recorded load/store sequence
// in lockstep with the execution: as long as every issued instruction
// matches the recording (same site, object, and indices), each lane of a
// load whose words are all outside Dirty is served from the recorded value,
// and each store adds to Dirty exactly the words whose committed value
// differs from the recorded one. The first sequence mismatch sets Desync
// and stops all serving — the caller must treat the lane as fully
// divergent from then on.
type LaneReplay struct {
	// WC is the warp being replayed.
	WC *WarpCapture
	// Dirty is the lane's divergent-word set (shared across the lane's
	// warps, maintained by the batch executor and by noteStore).
	Dirty *DirtySet
	// Bufs are the memory's buffers indexed by ID, resolving recorded
	// indices to word addresses.
	Bufs []*mem.Buffer

	loadCur  int
	storeCur int
	// Desync records that the executed instruction sequence diverged from
	// the recording (a fault corrupted an index or branch). The lane's
	// writes can no longer be bounded by the recording: the executor must
	// run every remaining warp of the lane in full.
	Desync bool
}

// Reset rebinds the replay state to a new warp, letting the batch executor
// reuse one LaneReplay per lane instead of allocating one per executed warp.
func (rp *LaneReplay) Reset(wc *WarpCapture) {
	rp.WC = wc
	rp.loadCur = 0
	rp.storeCur = 0
	rp.Desync = false
}

// wordDirty reports whether reading element idx of buf can observe the
// lane's divergence: its word is dirty, or the index falls outside the
// buffer.
func (rp *LaneReplay) wordDirty(buf *mem.Buffer, idx int32) bool {
	a := buf.ElemAddr(int(idx))
	return idx < 0 || !buf.Contains(a) || rp.Dirty.HasWord(a)
}

// ReadsDirty reports whether any recorded load of wc reads a dirty word:
// vector loads at each active lane's index, broadcast loads at their one
// index. A warp that reads no dirty word behaves bit-identically to the
// recording, so the executor may reproduce it by applying its recorded
// stores. The block bitset filters first, at warp
// and then at load granularity.
func (rp *LaneReplay) ReadsDirty(wc *WarpCapture) bool {
	if !rp.Dirty.AnyBlock(wc.LoadBlocks) {
		return false
	}
	for i := range wc.Loads {
		rec := &wc.Loads[i]
		if !rp.Dirty.AnyBlock(rec.Blocks) {
			continue
		}
		buf := rp.Bufs[rec.BufID]
		if rec.Broadcast {
			if rp.wordDirty(buf, rec.BIdx) {
				return true
			}
			continue
		}
		for _, idx := range rec.Idx {
			if idx != InactiveLane && rp.wordDirty(buf, idx) {
				return true
			}
		}
	}
	return false
}

// serveVectorHead matches the header of the next recorded load (position,
// site, object, vector-ness) against an issued vector load. A nil return
// desyncs the lane; the caller still owns the per-lane index check and the
// cursor advance.
func (rp *LaneReplay) serveVectorHead(pc uint16, bufID int16) *LoadRec {
	if rp.Desync || rp.loadCur >= len(rp.WC.Loads) {
		rp.Desync = true
		return nil
	}
	rec := &rp.WC.Loads[rp.loadCur]
	if rec.PC != pc || rec.BufID != bufID || rec.Broadcast {
		rp.Desync = true
		return nil
	}
	return rec
}

// matchIndices verifies the issued index vector against the record,
// desyncing the lane on the first mismatch.
func (rp *LaneReplay) matchIndices(rec *LoadRec, idx []int32, n int) bool {
	recIdx := rec.Idx[:n]
	for i, v := range idx[:n] {
		if recIdx[i] != v {
			rp.Desync = true
			return false
		}
	}
	rp.loadCur++
	return true
}

// serveVectorF32 matches the next recorded load against an issued vector
// load. When every touched block is clean, it serves the recorded values
// into dst in the same pass that verifies the index vector and returns
// (rec, true). Otherwise the caller reads memory: a nil
// record means the lane desynced and every lane must be read; a non-nil
// record (sequence verified, cursor advanced) means only the lanes whose
// words are dirty must be read, the rest being served from rec.Vals.
func (rp *LaneReplay) serveVectorF32(pc uint16, bufID int16, idx []int32, n int, dst []float32) (*LoadRec, bool) {
	rec := rp.serveVectorHead(pc, bufID)
	if rec == nil {
		return nil, false
	}
	if rp.Dirty.AnyBlock(rec.Blocks) {
		if !rp.matchIndices(rec, idx, n) {
			return nil, false
		}
		return rec, false
	}
	// Reslicing to n lets the compiler drop the per-lane bounds checks in
	// the loop below (the recorded warp has the executing warp's lane
	// count, so these never shrink a live record).
	recIdx, issued := rec.Idx[:n], idx[:n]
	vals, out := rec.Vals[:n], dst[:n]
	for i, v := range issued {
		if recIdx[i] != v {
			rp.Desync = true
			return nil, false
		}
		if v != InactiveLane {
			out[i] = math.Float32frombits(vals[i])
		}
	}
	rp.loadCur++
	return rec, true
}

// serveVectorI32 is serveVectorF32 for int32 destinations.
func (rp *LaneReplay) serveVectorI32(pc uint16, bufID int16, idx []int32, n int, dst []int32) (*LoadRec, bool) {
	rec := rp.serveVectorHead(pc, bufID)
	if rec == nil {
		return nil, false
	}
	if rp.Dirty.AnyBlock(rec.Blocks) {
		if !rp.matchIndices(rec, idx, n) {
			return nil, false
		}
		return rec, false
	}
	recIdx, issued := rec.Idx[:n], idx[:n]
	vals, out := rec.Vals[:n], dst[:n]
	for i, v := range issued {
		if recIdx[i] != v {
			rp.Desync = true
			return nil, false
		}
		if v != InactiveLane {
			out[i] = int32(vals[i])
		}
	}
	rp.loadCur++
	return rec, true
}

// serveBroadcast is the vector serve for warp-uniform loads: it returns
// the record when the load is in sync and its word is clean, and nil when
// the caller must read memory.
func (rp *LaneReplay) serveBroadcast(pc uint16, buf *mem.Buffer, bidx int32) *LoadRec {
	if rp.Desync || rp.loadCur >= len(rp.WC.Loads) {
		rp.Desync = true
		return nil
	}
	rec := &rp.WC.Loads[rp.loadCur]
	if rec.PC != pc || rec.BufID != int16(buf.ID) || !rec.Broadcast || rec.BIdx != bidx {
		rp.Desync = true
		return nil
	}
	rp.loadCur++
	if rp.Dirty.AnyBlock(rec.Blocks) && rp.wordDirty(buf, bidx) {
		return nil
	}
	return rec
}

// noteStore matches the next recorded store against an issued store and,
// while the lane stays in sync, adds to Dirty every word whose committed
// value differs from the recorded one — at commit time, so later loads of
// the same warp already see it. The store itself always executes on real
// memory; a sequence mismatch desyncs the lane, after which its writes are
// no longer bounded by the recording.
func (rp *LaneReplay) noteStore(pc uint16, buf *mem.Buffer, idx []int32, n int, src []float32) {
	if rp.Desync || rp.storeCur >= len(rp.WC.Stores) {
		rp.Desync = true
		return
	}
	rec := &rp.WC.Stores[rp.storeCur]
	if rec.PC != pc || rec.BufID != int16(buf.ID) {
		rp.Desync = true
		return
	}
	recIdx, recVals, issued := rec.Idx[:n], rec.Vals[:n], idx[:n]
	for i, v := range issued {
		if recIdx[i] != v {
			rp.Desync = true
			return
		}
		if v != InactiveLane && math.Float32bits(src[i]) != recVals[i] {
			rp.Dirty.AddWord(buf.ElemAddr(int(v)))
		}
	}
	rp.storeCur++
}
