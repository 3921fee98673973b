// Package mem models GPU device (global) memory: named buffer allocation
// (the paper's "data objects"), a byte-addressable memory image, and a
// permanent stuck-at fault overlay applied on every read — the fault model
// of Section II-C. Every memory is SECDED-protected, the paper's
// assumption and the package's one ECC model: a read corrects a word whose
// stuck bits differ from the stored value in one bit, and returns the
// corrupted word when they differ in more. Replica copies created by the
// replication schemes live in this same address space at distinct
// addresses, so block-addressed fault injection can hit primaries,
// replicas, or unrelated data alike.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

// Buffer describes one named allocation — a "data object" in the paper's
// terminology (e.g. Layer1_Weights, A, r). Buffers are immutable metadata;
// their contents live in the owning Memory.
type Buffer struct {
	// ID is the dense index of the buffer within its Memory.
	ID int
	// Name is the source-level data object name.
	Name string
	// Base is the first byte address; always 128 B aligned.
	Base arch.Addr
	// Size is the allocation length in bytes.
	Size int
	// ReadOnly marks kernel-input objects; only read-only objects are
	// eligible for replication (Section IV).
	ReadOnly bool
}

// Addr returns the address of byte offset off within the buffer.
func (b *Buffer) Addr(off int) arch.Addr { return b.Base + arch.Addr(off) }

// ElemAddr returns the address of 4-byte element i.
func (b *Buffer) ElemAddr(i int) arch.Addr { return b.Base + arch.Addr(i*4) }

// Len4 returns the number of 4-byte elements in the buffer.
func (b *Buffer) Len4() int { return b.Size / 4 }

// Blocks returns the number of 128 B data memory blocks the buffer spans.
func (b *Buffer) Blocks() int {
	return (b.Size + arch.BlockBytes - 1) / arch.BlockBytes
}

// FirstBlock returns the buffer's first data memory block.
func (b *Buffer) FirstBlock() arch.BlockAddr { return b.Base.Block() }

// Contains reports whether the address falls inside the buffer.
func (b *Buffer) Contains(a arch.Addr) bool {
	return a >= b.Base && a < b.Base+arch.Addr(b.Size)
}

// wordFault is one permanent stuck-at fault record for a 32-bit word.
type wordFault struct {
	wordAddr arch.Addr // word-aligned address
	setMask  uint32    // bits stuck at 1
	clrMask  uint32    // bits stuck at 0
}

// Memory is one device memory image. It is not safe for concurrent use;
// fault-injection campaigns run against per-run copy-on-write forks
// (Fork), which share a root image. Many forks of one root may be used
// concurrently as long as each individual fork stays on one goroutine and
// the root is no longer written (see Fork for the one exception).
type Memory struct {
	data    []byte
	buffers []*Buffer
	// faults is a small sorted-by-address slice: campaigns inject at most a
	// handful of faulty words, and a linear scan beats a map at that size.
	faults []wordFault

	// Copy-on-write fork state (nil/zero on root images, see fork.go). A
	// fork shares `shared` — the root's data — read-only and materializes a
	// private 128 B block copy in dirtyBuf on first write. blockOff maps a
	// block index to its offset in dirtyBuf (-1 = still shared), dirtyIdx
	// lists materialized blocks in first-write order, and copied counts
	// materializations over the fork's lifetime (Reset does not rewind it,
	// so telemetry can take deltas across pooled reuse).
	shared   []byte
	blockOff []int32
	dirtyBuf []byte
	dirtyIdx []int32
	copied   uint64
}

// New returns an empty device memory.
func New() *Memory { return &Memory{} }

// Alloc reserves a 128 B aligned buffer of the given byte size. Forks
// cannot allocate: buffer layout (including replica allocations made by
// protection plans) is fixed on the root image before forking.
func (m *Memory) Alloc(name string, size int, readOnly bool) (*Buffer, error) {
	if m.shared != nil {
		return nil, fmt.Errorf("mem: alloc %q: cannot allocate on a copy-on-write fork", name)
	}
	if size <= 0 {
		return nil, fmt.Errorf("mem: alloc %q: size must be positive, got %d", name, size)
	}
	for _, b := range m.buffers {
		if b.Name == name {
			return nil, fmt.Errorf("mem: alloc %q: name already in use", name)
		}
	}
	base := arch.Addr(len(m.data))
	padded := (size + arch.BlockBytes - 1) / arch.BlockBytes * arch.BlockBytes
	m.data = append(m.data, make([]byte, padded)...)
	b := &Buffer{
		ID:       len(m.buffers),
		Name:     name,
		Base:     base,
		Size:     size,
		ReadOnly: readOnly,
	}
	m.buffers = append(m.buffers, b)
	return b, nil
}

// Buffers returns the allocated buffers in allocation order. The returned
// slice must not be modified.
func (m *Memory) Buffers() []*Buffer { return m.buffers }

// BufferByName looks a buffer up by data-object name.
func (m *Memory) BufferByName(name string) (*Buffer, bool) {
	for _, b := range m.buffers {
		if b.Name == name {
			return b, true
		}
	}
	return nil, false
}

// BufferAt returns the buffer containing the address, if any.
func (m *Memory) BufferAt(a arch.Addr) (*Buffer, bool) {
	for _, b := range m.buffers {
		if b.Contains(a) {
			return b, true
		}
	}
	return nil, false
}

// Size returns the total allocated bytes (padded to blocks).
func (m *Memory) Size() int {
	if m.shared != nil {
		return len(m.shared)
	}
	return len(m.data)
}

// TotalBlocks returns the number of 128 B blocks allocated.
func (m *Memory) TotalBlocks() int { return m.Size() / arch.BlockBytes }

// Clone returns an independent deep copy sharing no mutable state. Buffer
// metadata is immutable and therefore shared. Cloning a fork materializes
// its resolved contents into a new root image.
func (m *Memory) Clone() *Memory {
	out := &Memory{
		data:    m.resolvedBytes(),
		buffers: append([]*Buffer(nil), m.buffers...),
		faults:  append([]wordFault(nil), m.faults...),
	}
	return out
}

// CopyFrom makes the root image m an independent copy of the root image
// src — its buffers and bytes, without faults — reusing m's storage, so a
// pooled image reaches a zero-allocation steady state across reloads.
func (m *Memory) CopyFrom(src *Memory) {
	if m.shared != nil || src.shared != nil {
		panic("mem: CopyFrom needs two root images")
	}
	m.data = append(m.data[:0], src.data...)
	m.buffers = append(m.buffers[:0], src.buffers...)
	m.faults = m.faults[:0]
}

// resolvedBytes returns a fresh copy of the image with any fork-private
// blocks folded in (the stuck-at fault overlay is a read-path effect and
// is not applied).
func (m *Memory) resolvedBytes() []byte {
	if m.shared == nil {
		return append([]byte(nil), m.data...)
	}
	out := append([]byte(nil), m.shared...)
	for _, b := range m.dirtyIdx {
		off := m.blockOff[b]
		copy(out[int(b)*arch.BlockBytes:], m.dirtyBuf[off:off+arch.BlockBytes])
	}
	return out
}

// InjectStuckAt records a permanent stuck-at fault: `mask` selects the bits
// of the 32-bit word at wordAddr, and stuckAtOne chooses the stuck value.
// Multiple injections to the same word accumulate.
func (m *Memory) InjectStuckAt(wordAddr arch.Addr, mask uint32, stuckAtOne bool) error {
	if wordAddr%arch.WordBytes != 0 {
		return fmt.Errorf("mem: fault address %#x is not word aligned", wordAddr)
	}
	if int(wordAddr)+arch.WordBytes > m.Size() {
		return fmt.Errorf("mem: fault address %#x beyond memory size %d", wordAddr, m.Size())
	}
	i := sort.Search(len(m.faults), func(i int) bool { return m.faults[i].wordAddr >= wordAddr })
	if i < len(m.faults) && m.faults[i].wordAddr == wordAddr {
		if stuckAtOne {
			m.faults[i].setMask |= mask
			m.faults[i].clrMask &^= mask
		} else {
			m.faults[i].clrMask |= mask
			m.faults[i].setMask &^= mask
		}
		return nil
	}
	f := wordFault{wordAddr: wordAddr}
	if stuckAtOne {
		f.setMask = mask
	} else {
		f.clrMask = mask
	}
	m.faults = append(m.faults, wordFault{})
	copy(m.faults[i+1:], m.faults[i:])
	m.faults[i] = f
	return nil
}

// ClearFaults removes every injected fault.
func (m *Memory) ClearFaults() { m.faults = m.faults[:0] }

// FaultCount returns the number of faulty words.
func (m *Memory) FaultCount() int { return len(m.faults) }

// FaultRecord describes one injected stuck-at fault for reports and tests.
type FaultRecord struct {
	// WordAddr is the faulty 32-bit word's address.
	WordAddr arch.Addr
	// StuckHigh and StuckLow are the bit masks stuck at 1 and 0.
	StuckHigh, StuckLow uint32
	// Object names the data object containing the word ("" if none).
	Object string
}

// Faults lists the injected faults in address order.
func (m *Memory) Faults() []FaultRecord {
	out := make([]FaultRecord, 0, len(m.faults))
	for _, f := range m.faults {
		rec := FaultRecord{WordAddr: f.wordAddr, StuckHigh: f.setMask, StuckLow: f.clrMask}
		if b, ok := m.BufferAt(f.wordAddr); ok {
			rec.Object = b.Name
		}
		out = append(out, rec)
	}
	return out
}

// rawWord reads the stored word without the fault overlay, resolving
// fork-private blocks.
func (m *Memory) rawWord(wordAddr arch.Addr) uint32 {
	if m.shared == nil {
		return binary.LittleEndian.Uint32(m.data[wordAddr:])
	}
	if off := m.blockOff[int(wordAddr)/arch.BlockBytes]; off >= 0 {
		return binary.LittleEndian.Uint32(m.dirtyBuf[int(off)+int(wordAddr)%arch.BlockBytes:])
	}
	return binary.LittleEndian.Uint32(m.shared[wordAddr:])
}

// ReadWord reads a 32-bit word through the fault overlay and SECDED: a
// stuck-at pattern that differs from the stored word in one bit is
// corrected, and one that differs in two or more bits escapes.
func (m *Memory) ReadWord(wordAddr arch.Addr) uint32 {
	raw := m.rawWord(wordAddr)
	if len(m.faults) == 0 {
		return raw
	}
	for i := range m.faults {
		f := &m.faults[i]
		if f.wordAddr != wordAddr {
			continue
		}
		faulty := (raw | f.setMask) &^ f.clrMask
		if bits.OnesCount32(faulty^raw) <= 1 {
			return raw
		}
		return faulty
	}
	return raw
}

// WriteWord stores a 32-bit word. Stuck-at faults are permanent: they keep
// overriding the stored bits on subsequent reads. On a fork, the first
// write to a 128 B block copies that block into the fork's private arena;
// the shared root image is never modified.
func (m *Memory) WriteWord(wordAddr arch.Addr, v uint32) {
	if m.shared == nil {
		binary.LittleEndian.PutUint32(m.data[wordAddr:], v)
		return
	}
	off := m.blockOff[int(wordAddr)/arch.BlockBytes]
	if off < 0 {
		off = m.materialize(int(wordAddr) / arch.BlockBytes)
	}
	binary.LittleEndian.PutUint32(m.dirtyBuf[int(off)+int(wordAddr)%arch.BlockBytes:], v)
}

// FlipBits XORs mask into the stored bits of the 32-bit word at wordAddr —
// write-time corruption, as a transient upset leaves behind in DRAM.
// Unlike the stuck-at overlay the flipped value is ordinary stored data: a
// later store overwrites it, and reads return it without reapplying any
// fault. On a fork the write materializes the block copy-on-write like any
// other store.
func (m *Memory) FlipBits(wordAddr arch.Addr, mask uint32) error {
	if wordAddr%arch.WordBytes != 0 {
		return fmt.Errorf("mem: flip address %#x is not word aligned", wordAddr)
	}
	if int(wordAddr)+arch.WordBytes > m.Size() {
		return fmt.Errorf("mem: flip address %#x beyond memory size %d", wordAddr, m.Size())
	}
	m.WriteWord(wordAddr, m.rawWord(wordAddr)^mask)
	return nil
}

// ReadF32 reads a float32 through the fault overlay.
func (m *Memory) ReadF32(addr arch.Addr) float32 {
	return math.Float32frombits(m.ReadWord(addr))
}

// WriteF32 stores a float32.
func (m *Memory) WriteF32(addr arch.Addr, v float32) {
	m.WriteWord(addr, math.Float32bits(v))
}

// ReadI32 reads an int32 through the fault overlay.
func (m *Memory) ReadI32(addr arch.Addr) int32 { return int32(m.ReadWord(addr)) }

// WriteI32 stores an int32.
func (m *Memory) WriteI32(addr arch.Addr, v int32) { m.WriteWord(addr, uint32(v)) }

// WriteF32Slice initialises buffer contents from a host slice.
func (m *Memory) WriteF32Slice(b *Buffer, src []float32) error {
	if len(src)*4 > b.Size {
		return fmt.Errorf("mem: %q: %d floats exceed buffer size %d B", b.Name, len(src), b.Size)
	}
	for i, v := range src {
		m.WriteF32(b.ElemAddr(i), v)
	}
	return nil
}

// WriteI32Slice initialises buffer contents from a host slice.
func (m *Memory) WriteI32Slice(b *Buffer, src []int32) error {
	if len(src)*4 > b.Size {
		return fmt.Errorf("mem: %q: %d ints exceed buffer size %d B", b.Name, len(src), b.Size)
	}
	for i, v := range src {
		m.WriteI32(b.ElemAddr(i), v)
	}
	return nil
}

// ReadF32Slice copies the buffer's contents (through the fault overlay) to a
// host slice of length n.
func (m *Memory) ReadF32Slice(b *Buffer, n int) []float32 {
	if n > b.Len4() {
		n = b.Len4()
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = m.ReadF32(b.ElemAddr(i))
	}
	return out
}

// CopyBuffer copies src's current (fault-free raw) contents into dst. It is
// used to initialise replica copies. Plans normally copy on the root image
// before forking; on a fork the copy goes through the copy-on-write path.
func (m *Memory) CopyBuffer(dst, src *Buffer) error {
	if dst.Size < src.Size {
		return fmt.Errorf("mem: copy %q→%q: destination %d B < source %d B", src.Name, dst.Name, dst.Size, src.Size)
	}
	if m.shared == nil {
		copy(m.data[dst.Base:int(dst.Base)+src.Size], m.data[src.Base:int(src.Base)+src.Size])
		return nil
	}
	for o := 0; o < src.Size; o++ {
		a := int(dst.Base) + o
		off := m.blockOff[a/arch.BlockBytes]
		if off < 0 {
			off = m.materialize(a / arch.BlockBytes)
		}
		m.dirtyBuf[int(off)+a%arch.BlockBytes] = m.byteAt(int(src.Base) + o)
	}
	return nil
}

// byteAt reads one stored byte, resolving fork-private blocks.
func (m *Memory) byteAt(a int) byte {
	if m.shared == nil {
		return m.data[a]
	}
	if off := m.blockOff[a/arch.BlockBytes]; off >= 0 {
		return m.dirtyBuf[int(off)+a%arch.BlockBytes]
	}
	return m.shared[a]
}
