package simt

import (
	"fmt"
	"math"
	"unsafe"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// InactiveLane marks a predicated-off lane in an index slice passed to the
// warp load/store methods.
const InactiveLane int32 = -1

// WarpCtx is the execution context of one warp. Kernel warp programs use
// its load/store/compute methods; all lanes proceed in lockstep. The context
// carries a sticky error: after a protection scheme signals termination,
// subsequent operations become no-ops and the driver aborts the launch.
type WarpCtx struct {
	// CTAIdx is the CTA (thread block) index within the grid.
	CTAIdx arch.Dim3
	// WarpInCTA is the warp's index within its CTA.
	WarpInCTA int
	// GlobalWarpID is the warp's dense index within the launch.
	GlobalWarpID int
	// NumLanes is the number of active threads (≤32; the tail warp of a CTA
	// may be partial).
	NumLanes int

	blockDim arch.Dim3
	drv      *Driver
	trace    []Instr
	// tracing gates the coalescer and trace emission: campaigns run
	// untraced, where per-lane block bookkeeping is pure overhead.
	tracing bool
	err     error

	// linearBase is the global linear thread ID of lane 0, precomputed by
	// the driver per warp so LinearThreadID is one add per call.
	linearBase int
	// capture, when set, is the launch recording the warp's loads and
	// stores are appended to.
	capture *Launch
	// replay, when set, serves loads from a recorded reference execution
	// while the instruction sequence stays in sync with it.
	replay *LaneReplay

	// tid caches ThreadIdx per lane for the (tidWarp, tidDim) pair.
	tid     [arch.WarpSize]arch.Dim3
	tidWarp int
	tidDim  arch.Dim3
	tidOK   bool

	// scratch reused by the coalescer across instructions.
	laneBlocks [arch.WarpSize]arch.BlockAddr
	uniq       []arch.BlockAddr

	// scratch arenas handed to kernel programs.
	scratchI32 [4][arch.WarpSize]int32
	scratchF32 [4][arch.WarpSize]float32
}

// ScratchI32 returns one of four per-warp index slices (length 32) for
// kernel programs to fill. Contents persist only within the current warp's
// execution; using the same slot for two concurrently-needed operands is a
// kernel bug.
func (w *WarpCtx) ScratchI32(slot int) []int32 { return w.scratchI32[slot][:] }

// ScratchF32 returns one of four per-warp value slices (length 32).
func (w *WarpCtx) ScratchF32(slot int) []float32 { return w.scratchF32[slot][:] }

// ThreadIdx returns the CUDA threadIdx for the given lane.
func (w *WarpCtx) ThreadIdx(lane int) arch.Dim3 { return w.tid[lane] }

// cacheThreadIdx fills the per-lane ThreadIdx table for the warp's
// (WarpInCTA, blockDim) pair unless it already holds that pair: three
// divisions per refill instead of four per ThreadIdx call.
func (w *WarpCtx) cacheThreadIdx() {
	if w.tidOK && w.tidWarp == w.WarpInCTA && w.tidDim == w.blockDim {
		return
	}
	x := w.blockDim.X
	if x == 0 {
		x = 1
	}
	y := w.blockDim.Y
	if y == 0 {
		y = 1
	}
	linear := w.WarpInCTA * arch.WarpSize
	t := arch.Dim3{X: linear % x, Y: (linear / x) % y, Z: linear / (x * y)}
	for lane := range w.tid {
		w.tid[lane] = t
		if t.X++; t.X == x {
			t.X = 0
			if t.Y++; t.Y == y {
				t.Y = 0
				t.Z++
			}
		}
	}
	w.tidOK, w.tidWarp, w.tidDim = true, w.WarpInCTA, w.blockDim
}

// LinearThreadID returns the global linear thread ID of the lane, with CTAs
// laid out grid-x-major as CUDA does for 1-D launches.
func (w *WarpCtx) LinearThreadID(lane int) int {
	return w.linearBase + lane
}

// Err returns the warp's sticky error, if any.
func (w *WarpCtx) Err() error { return w.err }

func (w *WarpCtx) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Compute accounts n back-to-back ALU operations executed by the warp.
func (w *WarpCtx) Compute(n int) {
	if w.err != nil || n <= 0 {
		return
	}
	if w.tracing {
		// Merge with a preceding compute to keep traces compact.
		if k := len(w.trace); k > 0 && w.trace[k-1].Kind == InstrCompute {
			w.trace[k-1].Ops += int32(n)
			return
		}
		w.trace = append(w.trace, Instr{Kind: InstrCompute, Ops: int32(n)})
	}
}

// coalesce computes the unique 128 B blocks touched by nAddr lane addresses
// in laneBlocks[:nAddr], preserving first-touch order. The result aliases
// w.uniq and is valid until the next call. Lane addresses are usually
// block-ascending (unit-stride accesses), so the common case is a
// compare-against-last append; the quadratic scan only runs after the first
// out-of-order address.
func (w *WarpCtx) coalesce(n int) []arch.BlockAddr {
	w.uniq = w.uniq[:0]
	asc := true
	for i := 0; i < n; i++ {
		b := w.laneBlocks[i]
		if k := len(w.uniq); k == 0 {
			w.uniq = append(w.uniq, b)
			continue
		} else if asc {
			last := w.uniq[k-1]
			if b == last {
				continue
			}
			if b > last {
				w.uniq = append(w.uniq, b)
				continue
			}
			asc = false
		}
		seen := false
		for _, u := range w.uniq {
			if u == b {
				seen = true
				break
			}
		}
		if !seen {
			w.uniq = append(w.uniq, b)
		}
	}
	return w.uniq
}

// emitMem appends one memory instruction and its coalesced transactions to
// the warp trace. Callers emit only when tracing.
func (w *WarpCtx) emitMem(kind InstrKind, site Site, buf *mem.Buffer, blocks []arch.BlockAddr) {
	w.trace = append(w.trace, Instr{
		Kind:   kind,
		PC:     site.PC,
		BufID:  int16(buf.ID),
		Blocks: append([]arch.BlockAddr(nil), blocks...),
	})
}

// oobWord resolves an out-of-bounds lane load in permissive mode: the
// faulty address wraps into the device address space and the raw word there
// is returned, as hardware would fetch whatever line the corrupted address
// names.
func (w *WarpCtx) oobWord(buf *mem.Buffer, idx int32) (uint32, arch.BlockAddr) {
	size := int64(w.drv.Mem.Size())
	off := (int64(buf.Base) + int64(idx)*4) % size
	if off < 0 {
		off += size
	}
	off &^= 3
	addr := arch.Addr(off)
	return w.drv.Mem.ReadWord(addr), addr.Block()
}

// asWords views a slice of 32-bit lane values as the raw words over the
// same backing array, so a typed load gathers straight into its
// destination. float32, int32 and uint32 all have size 4 and alignment 4,
// so the view covers exactly the slice's bytes, every element aligned; a
// word written through it is the element's bit pattern, NaN payloads
// included.
func asWords[T float32 | int32](s []T) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// LoadF32 performs a per-lane gather from buf: dst[lane] = buf[idx[lane]]
// for each active lane. idx and dst must have length ≥ NumLanes; lanes with
// idx[lane] == InactiveLane are predicated off. When tracing, the load is
// coalesced into block transactions exactly once.
func (w *WarpCtx) LoadF32(site Site, buf *mem.Buffer, idx []int32, dst []float32) {
	w.loadVector(site, buf, idx, asWords(dst))
}

// LoadI32 is LoadF32 for int32 data.
func (w *WarpCtx) LoadI32(site Site, buf *mem.Buffer, idx []int32, dst []int32) {
	w.loadVector(site, buf, idx, asWords(dst))
}

// loadVector is the one vector gather behind LoadF32 and LoadI32, over raw
// words. A replayed warp is served from its recording where the lane's
// words are clean; every other active lane reads through the driver's
// reader, or, out of bounds in permissive mode, the wrapped word
// (oobWord). The load is then captured and traced as issued.
func (w *WarpCtx) loadVector(site Site, buf *mem.Buffer, idx []int32, dst []uint32) {
	if w.err != nil {
		return
	}
	rp := w.replay
	var vals []uint32
	if rp != nil {
		rec, served := rp.serveVector(site.PC, int16(buf.ID), idx, w.NumLanes, dst)
		if served {
			return
		}
		if rec != nil {
			vals = rp.w.Vals(rec)
		}
	}
	track := w.tracing || w.capture != nil
	n := 0
	for lane := 0; lane < w.NumLanes; lane++ {
		i := idx[lane]
		if i == InactiveLane {
			continue
		}
		addr := buf.ElemAddr(int(i))
		blk := addr.Block()
		switch {
		case vals != nil && !rp.wordDirty(buf, i):
			dst[lane] = vals[lane]
		case i < 0 || !buf.Contains(addr):
			if !w.drv.PermissiveOOB {
				w.fail(fmt.Errorf("simt: warp %d %s: lane %d index %d out of bounds for %q (%d B)",
					w.GlobalWarpID, site.Name, lane, i, buf.Name, buf.Size))
				return
			}
			dst[lane], blk = w.oobWord(buf, i)
		default:
			word, err := w.drv.reader.ReadLaneWord(buf, addr)
			if err != nil {
				w.fail(err)
				return
			}
			dst[lane] = word
		}
		if track {
			w.laneBlocks[n] = blk
		}
		n++
	}
	if c := w.capture; c != nil {
		c.Loads = append(c.Loads, c.vector(site, buf, idx[:w.NumLanes], dst, w.coalesce(n)))
	}
	if n == 0 || !w.tracing {
		return
	}
	w.emitMem(InstrLoad, site, buf, w.coalesce(n))
}

// LoadF32Broadcast reads one element on behalf of the whole warp — the
// uniform-access pattern (e.g. r[i] inside the P-BICG loop, or the filter
// scalars in the AxBench kernels). It coalesces to a single transaction.
func (w *WarpCtx) LoadF32Broadcast(site Site, buf *mem.Buffer, idx int32) float32 {
	return math.Float32frombits(w.loadBroadcast(site, buf, idx))
}

// LoadI32Broadcast is LoadF32Broadcast for int32 data.
func (w *WarpCtx) LoadI32Broadcast(site Site, buf *mem.Buffer, idx int32) int32 {
	return int32(w.loadBroadcast(site, buf, idx))
}

// loadBroadcast is the one warp-uniform load behind LoadF32Broadcast and
// LoadI32Broadcast: loadVector's steps for one word, which reads as 0
// once the warp has failed.
func (w *WarpCtx) loadBroadcast(site Site, buf *mem.Buffer, idx int32) uint32 {
	if w.err != nil {
		return 0
	}
	if rp := w.replay; rp != nil {
		if word, ok := rp.serveBroadcast(site.PC, buf, idx); ok {
			return word
		}
	}
	addr := buf.ElemAddr(int(idx))
	blk := addr.Block()
	var word uint32
	if idx < 0 || !buf.Contains(addr) {
		if !w.drv.PermissiveOOB {
			w.fail(fmt.Errorf("simt: warp %d %s: broadcast index %d out of bounds for %q (%d B)",
				w.GlobalWarpID, site.Name, idx, buf.Name, buf.Size))
			return 0
		}
		word, blk = w.oobWord(buf, idx)
	} else {
		var err error
		if word, err = w.drv.reader.ReadLaneWord(buf, addr); err != nil {
			w.fail(err)
			return 0
		}
	}
	if c := w.capture; c != nil {
		c.Loads = append(c.Loads, c.broadcast(site, buf, idx, word, blk))
	}
	if w.tracing {
		w.emitMem(InstrLoad, site, buf, []arch.BlockAddr{blk})
	}
	return word
}

// StoreF32 performs a per-lane scatter: buf[idx[lane]] = src[lane]. Stores
// bypass protection (hot data objects are read-only) and write device
// memory directly.
func (w *WarpCtx) StoreF32(site Site, buf *mem.Buffer, idx []int32, src []float32) {
	if w.err != nil {
		return
	}
	if buf.ReadOnly {
		w.fail(fmt.Errorf("simt: warp %d %s: store to read-only object %q", w.GlobalWarpID, site.Name, buf.Name))
		return
	}
	if rp := w.replay; rp != nil {
		// The store still executes on real memory below; matching keeps the
		// replay sequence in sync and marks the words it makes divergent.
		rp.noteStore(site.PC, buf, idx, w.NumLanes, src)
	}
	track := w.tracing || w.capture != nil
	n := 0
	for lane := 0; lane < w.NumLanes; lane++ {
		i := idx[lane]
		if i == InactiveLane {
			continue
		}
		addr := buf.ElemAddr(int(i))
		if !buf.Contains(addr) {
			w.fail(fmt.Errorf("simt: warp %d %s: lane %d index %d out of bounds for %q (%d B)",
				w.GlobalWarpID, site.Name, lane, i, buf.Name, buf.Size))
			return
		}
		w.drv.Mem.WriteF32(addr, src[lane])
		if track {
			w.laneBlocks[n] = addr.Block()
		}
		n++
	}
	if c := w.capture; c != nil {
		c.Stores = append(c.Stores, c.vector(site, buf, idx[:w.NumLanes], asWords(src), w.coalesce(n)))
	}
	if n == 0 || !w.tracing {
		return
	}
	w.emitMem(InstrStore, site, buf, w.coalesce(n))
}
