package simt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// CaptureLog is the recorded reference execution of one application, in
// the one shape it keeps from Driver.Run through the golden artifact to
// batched replay: one Launch per kernel launch, in launch order. A replay
// takes launch i's kernel from the application's kernel list.
type CaptureLog struct {
	Launches []Launch
}

// Launch is the recording of one kernel launch, held in pointer-free
// arenas: fixed-size records address shared arrays of indices, values and
// blocks by offset, so the whole launch is six allocations that the golden
// artifact persists as raw bytes (Arena). A warp's identity (CTA, warp in
// CTA, lane count) is not stored: Kernel.WarpAt derives it from the launch
// geometry and the warp's global ID, its index in Warps.
type Launch struct {
	// Warps is dense by global warp ID: each warp's spans of Loads, Stores
	// and, in Blocks, its read footprint.
	Warps Arena[WarpRec]
	// Loads and Stores are the launch's memory instructions, warp after
	// warp in launch order, each warp's in program order.
	Loads, Stores Arena[Access]
	// Idx holds the index vectors of Gather accesses.
	Idx Arena[int32]
	// Vals holds the 32-bit words the accesses loaded or stored.
	Vals Arena[uint32]
	// Blocks holds the coalesced blocks of every access and every warp's
	// read footprint.
	Blocks Arena[arch.BlockAddr]
}

// Span addresses Len consecutive elements of an arena, from Off.
type Span struct {
	Off, Len uint32
}

// WarpRec places one warp's records in its launch's arenas. Footprint is
// the deduplicated union of the warp's load blocks in first-touch order,
// built by the Driver as the warp finishes: a run whose divergent blocks
// miss this set entirely cannot observe the divergence in this warp.
type WarpRec struct {
	Loads, Stores, Footprint Span
}

// AccessKind says how an Access places its lanes.
type AccessKind uint8

// Access kinds.
const (
	// Affine lanes 0 … Lanes-1 are active at Base + lane*Stride.
	Affine AccessKind = iota
	// Gather lanes 0 … Lanes-1 are at Idx[Base+lane], InactiveLane at the
	// inactive ones.
	Gather
	// Broadcast is a warp-uniform load (LoadF32Broadcast,
	// LoadI32Broadcast) of the one element Base.
	Broadcast
)

// Access is one recorded warp-level load or store. Lanes from Lanes on
// are inactive; a vector access records its lanes up to the last active
// one, and an index vector whose active lanes form a constant-stride
// prefix (every store, most loads) is kept as (Base, Stride). Its field
// order leaves no padding, so its bytes are exactly its fields.
type Access struct {
	// PC is the static site that issued the access.
	PC uint16
	// BufID is the accessed data object.
	BufID int16
	Kind  AccessKind
	// Lanes is the number of recorded lanes of a vector access.
	Lanes uint8
	// NBlocks is the number of coalesced blocks the access touches, at
	// Blocks[Block:].
	NBlocks uint16
	// Base and Stride place the index vector (see AccessKind); Base is an
	// offset into Idx for a Gather.
	Base, Stride int32
	// Val is the offset of the access's words in Vals: one per recorded
	// lane (0 at an inactive one), or one for a Broadcast.
	Val uint32
	// Block is the offset of the access's blocks in Blocks.
	Block uint32
}

// Values returns the number of words the access holds in Vals.
func (a *Access) Values() int {
	if a.Kind == Broadcast {
		return 1
	}
	return int(a.Lanes)
}

// Warp is one recorded warp's view of its launch's arenas.
type Warp struct {
	l *Launch
	// Loads and Stores are the warp's records, in program order.
	Loads, Stores []Access
	// Footprint is the warp's read footprint (WarpRec).
	Footprint []arch.BlockAddr
}

// Warp returns global warp g's view. The recording must be well formed
// (the golden artifact's check verifies every span before replay).
func (l *Launch) Warp(g int) Warp {
	r := &l.Warps[g]
	return Warp{
		l:         l,
		Loads:     l.Loads[r.Loads.Off : r.Loads.Off+r.Loads.Len],
		Stores:    l.Stores[r.Stores.Off : r.Stores.Off+r.Stores.Len],
		Footprint: l.Blocks[r.Footprint.Off : r.Footprint.Off+r.Footprint.Len],
	}
}

// Blocks returns the access's coalesced blocks.
func (w *Warp) Blocks(a *Access) []arch.BlockAddr {
	return w.l.Blocks[a.Block : a.Block+uint32(a.NBlocks)]
}

// Vals returns the access's recorded words.
func (w *Warp) Vals(a *Access) []uint32 {
	return w.l.Vals[a.Val : a.Val+uint32(a.Values())]
}

// Index returns a vector access's recorded lanes' indices: a view of Idx
// for a Gather, else written into buf.
func (w *Warp) Index(a *Access, buf *[arch.WarpSize]int32) []int32 {
	if a.Kind == Gather {
		off := uint32(a.Base)
		return w.l.Idx[off : off+uint32(a.Lanes)]
	}
	idx := buf[:a.Lanes]
	for lane := range idx {
		idx[lane] = a.Base + int32(lane)*a.Stride
	}
	return idx
}

// vector appends one vector access's index vector (unless it is affine),
// words and blocks to the arenas and returns its record. idx holds an
// index per warp lane, InactiveLane at the inactive ones, and vals the
// words at those lanes.
func (l *Launch) vector(site Site, buf *mem.Buffer, idx []int32, vals []uint32, blocks []arch.BlockAddr) Access {
	n := len(idx)
	for n > 0 && idx[n-1] == InactiveLane {
		n--
	}
	idx = idx[:n]
	a := Access{PC: site.PC, BufID: int16(buf.ID), Lanes: uint8(n), NBlocks: uint16(len(blocks)),
		Val: uint32(len(l.Vals)), Block: uint32(len(l.Blocks))}
	if base, stride, ok := affine(idx); ok {
		a.Base, a.Stride = base, stride
	} else {
		a.Kind, a.Base = Gather, int32(len(l.Idx))
		l.Idx = append(l.Idx, idx...)
	}
	for lane, i := range idx {
		v := vals[lane]
		if i == InactiveLane {
			v = 0
		}
		l.Vals = append(l.Vals, v)
	}
	l.Blocks = append(l.Blocks, blocks...)
	return a
}

// affine reports whether every lane of idx is active at base +
// lane*stride (stride 0 below two lanes).
func affine(idx []int32) (base, stride int32, ok bool) {
	if len(idx) == 0 {
		return 0, 0, true
	}
	base = idx[0]
	if len(idx) > 1 {
		stride = idx[1] - base
	}
	for lane, i := range idx {
		if i == InactiveLane || i != base+int32(lane)*stride {
			return 0, 0, false
		}
	}
	return base, stride, true
}

// broadcast appends a warp-uniform load's word and block and returns its
// record.
func (l *Launch) broadcast(site Site, buf *mem.Buffer, idx int32, word uint32, blk arch.BlockAddr) Access {
	a := Access{PC: site.PC, BufID: int16(buf.ID), Kind: Broadcast, NBlocks: 1, Base: idx,
		Val: uint32(len(l.Vals)), Block: uint32(len(l.Blocks))}
	l.Vals = append(l.Vals, word)
	l.Blocks = append(l.Blocks, blk)
	return a
}

// openWarp starts the capture of global warp g: its records begin at the
// arenas' current ends.
func (l *Launch) openWarp(g int) {
	r := &l.Warps[g]
	r.Loads.Off, r.Stores.Off = uint32(len(l.Loads)), uint32(len(l.Stores))
}

// closeWarp ends the capture of global warp g: it sets the spans' lengths
// and appends the warp's read footprint. seen must be empty, and is left
// empty: every bit set here belongs to a block of the footprint, so
// clearing the footprint's bitset words clears them all.
func (l *Launch) closeWarp(g int, seen *BlockSet) {
	r := &l.Warps[g]
	r.Loads.Len = uint32(len(l.Loads)) - r.Loads.Off
	r.Stores.Len = uint32(len(l.Stores)) - r.Stores.Off
	r.Footprint.Off = uint32(len(l.Blocks))
	for _, a := range l.Loads[r.Loads.Off:] {
		for _, b := range l.Blocks[a.Block : a.Block+uint32(a.NBlocks)] {
			if !seen.Has(b) {
				seen.Add(b)
				l.Blocks = append(l.Blocks, b)
			}
		}
	}
	union := l.Blocks[r.Footprint.Off:]
	r.Footprint.Len = uint32(len(union))
	for _, b := range union {
		seen.bits[uint(b)/64] = 0
	}
}

// clip ends a launch's capture: every arena is copied to its exact length,
// so the recording holds no append slack, and an arena too long for a
// 32-bit offset fails the launch.
func (l *Launch) clip() error {
	for _, n := range []int{len(l.Warps), len(l.Loads), len(l.Stores), len(l.Idx), len(l.Vals), len(l.Blocks)} {
		if n > math.MaxUint32 {
			return fmt.Errorf("simt: a recorded launch arena of %d elements exceeds 32-bit offsets", n)
		}
	}
	l.Warps, l.Loads, l.Stores = clip(l.Warps), clip(l.Loads), clip(l.Stores)
	l.Idx, l.Vals, l.Blocks = clip(l.Idx), clip(l.Vals), clip(l.Blocks)
	return nil
}

func clip[S ~[]E, E any](s S) S {
	if len(s) == cap(s) {
		return s
	}
	return append(make(S, 0, len(s)), s...)
}

// Bytes is the launch's heap footprint: its header and every arena's
// length times its element size.
func (l *Launch) Bytes() int64 {
	return int64(unsafe.Sizeof(*l)) + l.Warps.bytes() + l.Loads.bytes() + l.Stores.bytes() +
		l.Idx.bytes() + l.Vals.bytes() + l.Blocks.bytes()
}

// ApproxBytes is the log's heap footprint, so callers can bound how much
// capture state they keep: exact up to the allocator's rounding of each
// arena, because the Driver clips every arena to its length.
func (c *CaptureLog) ApproxBytes() int64 {
	var n int64
	for i := range c.Launches {
		n += c.Launches[i].Bytes()
	}
	return n
}

// Arena is one of a Launch's pointer-free arrays. It encodes as its
// elements' little-endian bytes: on a little-endian host, its own memory,
// which gob then copies as one run instead of walking element by element.
type Arena[T WarpRec | Access | int32 | uint32 | arch.BlockAddr] []T

// hostLittleEndian reports whether the host stores words little-endian,
// as the arenas' encoding does.
var hostLittleEndian = func() bool {
	w := uint16(1)
	return *(*byte)(unsafe.Pointer(&w)) == 1
}()

func (a Arena[T]) bytes() int64 {
	var zero T
	return int64(len(a)) * int64(unsafe.Sizeof(zero))
}

// raw views the arena's memory as bytes.
func (a Arena[T]) raw() []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a))), a.bytes())
}

// GobEncode returns the arena's little-endian bytes.
func (a Arena[T]) GobEncode() ([]byte, error) {
	if hostLittleEndian {
		return a.raw(), nil
	}
	var b bytes.Buffer
	err := binary.Write(&b, binary.LittleEndian, []T(a))
	return b.Bytes(), err
}

// GobDecode copies little-endian bytes into a new arena.
func (a *Arena[T]) GobDecode(b []byte) error {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if len(b)%size != 0 {
		return fmt.Errorf("simt: %d bytes are not a whole number of %d-byte arena elements", len(b), size)
	}
	s := make(Arena[T], len(b)/size)
	if !hostLittleEndian {
		*a = s
		return binary.Read(bytes.NewReader(b), binary.LittleEndian, []T(s))
	}
	copy(s.raw(), b)
	*a = s
	return nil
}
