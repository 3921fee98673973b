// Bit-parallel divergence classification: one golden fork settles up to 64
// sibling forks in a single sweep. The amortization over per-lane
// DivergesFrom calls comes from the golden side: blocks only the golden run
// wrote resolve, on every lane that never materialized them, to the same
// shared root bytes — so one root-vs-golden comparison per such block
// answers for all of those lanes at once, instead of once per lane.
package mem

import (
	"bytes"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

// BatchLanes is the lane width of one bit-parallel classification sweep:
// the outcome masks are packed into a uint64.
const BatchLanes = 64

// DirtyBlockList appends the indices of every currently materialized block
// to dst — a fork's write set so far, in materialization order. Batched
// campaign executors seed a lane's divergent words from it, whole blocks
// at a time (a transient flip materializes its block at injection time).
func (m *Memory) DirtyBlockList(dst []arch.BlockAddr) []arch.BlockAddr {
	for _, b := range m.dirtyIdx {
		dst = append(dst, arch.BlockAddr(b))
	}
	return dst
}

// FaultWord returns the address of the i-th injected fault word, in address
// order, for 0 <= i < FaultCount() — the words whose read-path overlay may
// diverge from the golden image.
func (m *Memory) FaultWord(i int) arch.Addr { return m.faults[i].wordAddr }

// BatchDiverges reports, as a bitmask over lanes, which of the forks
// diverge from the golden fork — lane i diverges iff
// lanes[i].DivergesFrom(golden) would return true. All memories must be
// forks of the same root image, or golden that root itself (it then has no
// golden-only blocks); nil lanes are skipped (their bit stays 0);
// at most BatchLanes lanes fit one sweep. Each lane's comparison early-exits
// on its first divergent word, and the golden-only dirty blocks are
// compared against the shared root once for the whole batch.
func BatchDiverges(golden *Memory, lanes []*Memory) uint64 {
	if len(lanes) > BatchLanes {
		panic("mem: BatchDiverges called with more than 64 lanes")
	}

	// Pre-resolve the blocks only the golden run may have written: differs
	// records whether golden's block content departed from the shared root
	// bytes, which is exactly what a lane that never materialized the block
	// still resolves to.
	type goldenBlock struct {
		b       int32
		differs bool
	}
	gblocks := make([]goldenBlock, 0, len(golden.dirtyIdx))
	for _, b := range golden.dirtyIdx {
		root := golden.shared[int(b)*arch.BlockBytes : (int(b)+1)*arch.BlockBytes]
		gblocks = append(gblocks, goldenBlock{b, !bytes.Equal(golden.blockBytes(int(b)), root)})
	}

	var diverged uint64
	for li, m := range lanes {
		if m == nil {
			continue
		}
		diverges := false
		for _, b := range m.dirtyIdx {
			if !bytes.Equal(m.blockBytes(int(b)), golden.blockBytes(int(b))) {
				diverges = true
				break
			}
		}
		if !diverges {
			for _, g := range gblocks {
				// Blocks the lane materialized itself were compared above;
				// otherwise the lane resolves to root bytes, so the
				// precomputed root-vs-golden verdict applies.
				if g.differs && m.blockOff[g.b] < 0 {
					diverges = true
					break
				}
			}
		}
		if !diverges {
			for i := range m.faults {
				a := m.faults[i].wordAddr
				if m.ReadWord(a) != golden.ReadWord(a) {
					diverges = true
					break
				}
			}
		}
		if !diverges {
			for i := range golden.faults {
				a := golden.faults[i].wordAddr
				if m.ReadWord(a) != golden.ReadWord(a) {
					diverges = true
					break
				}
			}
		}
		if diverges {
			diverged |= uint64(1) << uint(li)
		}
	}
	return diverged
}
