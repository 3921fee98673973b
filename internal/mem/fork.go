// Copy-on-write memory forking: the campaign fast path. A fault-injection
// run dirties only a handful of 128 B blocks (its fault words' overlay is a
// read-path effect and the kernel's stores touch just the output objects),
// so sharing the golden image and copying blocks on first write replaces
// the per-run O(image) Clone with O(written state). Forks also expose the
// two primitives the campaign layer builds its pruning and classification
// on: FaultsInert (a run whose faults provably cannot alter any value read
// is bit-identical to the golden run) and DivergesFrom (streaming
// block-level comparison of two sibling forks with early exit).
package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

// Fork returns a copy-on-write view of the root image: reads resolve to
// the shared golden bytes until a block is first written, at which point
// that 128 B block — and only it — is copied into the fork's private
// arena. The root must not be written while forks of it are alive; each
// fork is single-goroutine, but any number of forks of one root may run
// concurrently. Injected faults on the root are copied into the fork;
// faults injected on the fork never reach the root.
func (m *Memory) Fork() *Memory {
	if m.shared != nil {
		panic("mem: Fork of a fork; fork the root image instead")
	}
	f := &Memory{
		buffers:  m.buffers,
		shared:   m.data,
		blockOff: make([]int32, m.TotalBlocks()),
	}
	for i := range f.blockOff {
		f.blockOff[i] = -1
	}
	if len(m.faults) > 0 {
		f.faults = append([]wordFault(nil), m.faults...)
	}
	return f
}

// IsFork reports whether m is a copy-on-write fork of a root image.
func (m *Memory) IsFork() bool { return m.shared != nil }

// Reset returns a fork to its just-forked state — no private blocks, no
// injected faults — while keeping the arena's capacity, so a pooled fork
// reaches a zero-allocation steady state across campaign runs.
func (m *Memory) Reset() {
	if m.shared == nil {
		panic("mem: Reset of a root memory image")
	}
	for _, b := range m.dirtyIdx {
		m.blockOff[b] = -1
	}
	m.dirtyIdx = m.dirtyIdx[:0]
	m.dirtyBuf = m.dirtyBuf[:0]
	m.faults = m.faults[:0]
}

// CopiedBlocks returns how many 128 B blocks the fork has materialized
// over its lifetime. Monotone across Reset, so pooled reuse can meter
// copy traffic by delta.
func (m *Memory) CopiedBlocks() uint64 { return m.copied }

// DirtyBlocks returns how many blocks are currently materialized.
func (m *Memory) DirtyBlocks() int { return len(m.dirtyIdx) }

// materialize copies one shared block into the private arena and returns
// its arena offset. Appends reuse capacity retained across Reset.
func (m *Memory) materialize(block int) int32 {
	off := int32(len(m.dirtyBuf))
	base := block * arch.BlockBytes
	m.dirtyBuf = append(m.dirtyBuf, m.shared[base:base+arch.BlockBytes]...)
	m.blockOff[block] = off
	m.dirtyIdx = append(m.dirtyIdx, int32(block))
	m.copied++
	return off
}

// SnapshotBlocks exports the fork's private state as a delta against the
// shared root image: the materialized block indices in first-write order
// and their raw 128 B contents, concatenated in the same order. The
// returned slices are copies, safe to retain and serialize after the fork
// is reset or released. Together with RestoreBlocks this round-trips a
// fault-free post-run fork (e.g. the golden post image) through a byte
// encoding: the restored fork resolves every word identically and carries
// the identical dirty-block ordering.
func (m *Memory) SnapshotBlocks() (idx []int32, data []byte) {
	if m.shared == nil {
		panic("mem: SnapshotBlocks of a root memory image")
	}
	if len(m.dirtyIdx) == 0 {
		return nil, nil
	}
	idx = append([]int32(nil), m.dirtyIdx...)
	data = append([]byte(nil), m.dirtyBuf...)
	return idx, data
}

// RestoreBlocks replays a SnapshotBlocks delta onto a clean fork,
// materializing each block in the recorded first-write order and
// overwriting its contents. The fork must be freshly forked (or Reset) from
// the same root image the snapshot was taken against; injected faults are
// not part of the delta.
func (m *Memory) RestoreBlocks(idx []int32, data []byte) error {
	if m.shared == nil {
		return errors.New("mem: RestoreBlocks on a root memory image")
	}
	if len(m.dirtyIdx) != 0 || len(m.faults) != 0 {
		return errors.New("mem: RestoreBlocks on a non-clean fork")
	}
	if len(data) != len(idx)*arch.BlockBytes {
		return fmt.Errorf("mem: RestoreBlocks delta mismatch: %d blocks, %d bytes", len(idx), len(data))
	}
	total := int32(m.TotalBlocks())
	for i, b := range idx {
		if b < 0 || b >= total {
			return fmt.Errorf("mem: RestoreBlocks block %d out of range [0,%d)", b, total)
		}
		if m.blockOff[b] >= 0 {
			return fmt.Errorf("mem: RestoreBlocks duplicate block %d", b)
		}
		off := m.materialize(int(b))
		copy(m.dirtyBuf[off:off+arch.BlockBytes], data[i*arch.BlockBytes:])
	}
	return nil
}

// blockBytes returns the backing bytes of one 128 B block without copying
// and without the fault overlay.
func (m *Memory) blockBytes(block int) []byte {
	if m.shared != nil {
		if off := m.blockOff[block]; off >= 0 {
			return m.dirtyBuf[off : off+arch.BlockBytes]
		}
		return m.shared[block*arch.BlockBytes : (block+1)*arch.BlockBytes]
	}
	return m.data[block*arch.BlockBytes : (block+1)*arch.BlockBytes]
}

// DivergesFrom reports whether any word of m's overlay-resolved contents
// differs from golden's. Both memories must be forks of the same root
// image. The comparison is streaming and block-granular with early exit on
// the first divergence: only blocks written by either fork are compared
// byte-wise, then the few fault-overlaid words are compared through
// ReadWord — every untouched, un-overlaid word trivially resolves to the
// shared root bytes on both sides. A false return therefore proves the two
// resolved images are bit-identical everywhere. Campaigns classify through
// the bit-parallel BatchDiverges; this one-lane form is the reference its
// property test checks it against.
func (m *Memory) DivergesFrom(golden *Memory) bool {
	for _, b := range m.dirtyIdx {
		if !bytes.Equal(m.blockBytes(int(b)), golden.blockBytes(int(b))) {
			return true
		}
	}
	for _, b := range golden.dirtyIdx {
		if m.blockOff[b] >= 0 {
			continue // already compared above
		}
		if !bytes.Equal(m.blockBytes(int(b)), golden.blockBytes(int(b))) {
			return true
		}
	}
	for i := range m.faults {
		a := m.faults[i].wordAddr
		if m.ReadWord(a) != golden.ReadWord(a) {
			return true
		}
	}
	for i := range golden.faults {
		a := golden.faults[i].wordAddr
		if m.ReadWord(a) != golden.ReadWord(a) {
			return true
		}
	}
	return false
}

// FaultsInert reports whether every injected fault provably cannot change
// any value the application will read, making the run bit-identical to the
// fault-free one without executing it. A fault word is inert when both
// hold:
//
//   - The word can never be written: it lies in a read-only data object or
//     in allocation padding. Stores are bounds-checked against writable
//     buffers (only fault-corrupted *loads* wrap permissively), so the
//     word's raw bits keep their golden value for the whole run.
//   - At those golden bits, the overlay resolves to the raw value: either
//     no stuck bit disagrees with the stored bit, or exactly one does and
//     SECDED corrects it.
//
// Every read of the word (in-bounds or wrapped out-of-bounds) then returns
// the golden value, so execution, output, and any detection/correction
// comparisons are identical to the golden run. Faults in writable objects
// are never inert: a later store can change the raw bits and re-arm the
// overlay.
func (m *Memory) FaultsInert() bool {
	for i := range m.faults {
		f := &m.faults[i]
		if b, ok := m.BufferAt(f.wordAddr); ok && !b.ReadOnly {
			return false
		}
		raw := m.rawWord(f.wordAddr)
		faulty := (raw | f.setMask) &^ f.clrMask
		if bits.OnesCount32(faulty^raw) > 1 {
			return false
		}
	}
	return true
}
