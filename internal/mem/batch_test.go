package mem

import (
	"math/rand"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

// TestBatchDivergesMatchesDivergesFrom is the property test for the one
// classification sweep: over random forks of one root, BatchDiverges must
// return exactly the bitmask DivergesFrom gives lane by lane. Claims hold
// 1 to BatchLanes lanes, some of them nil. Lanes mix the ways a fork can
// match or miss the golden one: golden writes replayed or skipped (blocks
// only the golden fork has dirty), private writes that do or do not land
// on the golden value, and stuck-at overlays that are invisible, corrected
// by SECDED, or escape it. The golden fork itself sometimes writes a
// block's root value back, and sometimes carries an overlay fault. In every
// fourth trial the golden image is a root holding the golden writes (a
// batched claim's shared image) and the lanes are rebased onto it; both
// verdicts must then also match a word-by-word comparison.
func TestBatchDivergesMatchesDivergesFrom(t *testing.T) {
	m, in, out := forkFixture(t)
	words := make([]arch.Addr, 0, in.Len4()+out.Len4())
	for i := 0; i < in.Len4(); i++ {
		words = append(words, in.ElemAddr(i))
	}
	for i := 0; i < out.Len4(); i++ {
		words = append(words, out.ElemAddr(i))
	}
	rng := rand.New(rand.NewSource(20261017))
	pick := func() arch.Addr { return words[rng.Intn(len(words))] }

	type write struct {
		addr arch.Addr
		val  uint32
	}
	var diverged, matched, nilLanes int
	for trial := 0; trial < 300; trial++ {
		golden := m.Fork()
		var gw []write
		for k := rng.Intn(24); k > 0; k-- {
			a := out.ElemAddr(rng.Intn(out.Len4()))
			v := rng.Uint32()
			if rng.Intn(4) == 0 {
				v = m.ReadWord(a) // dirty, but equal to the root
			}
			golden.WriteWord(a, v)
			gw = append(gw, write{a, v})
		}
		if rng.Intn(8) == 0 {
			if err := golden.InjectStuckAt(pick(), 0x3, rng.Intn(2) == 0); err != nil {
				t.Fatal(err)
			}
		}

		lanes := make([]*Memory, 1+rng.Intn(BatchLanes))
		for i := range lanes {
			if rng.Intn(8) == 0 {
				nilLanes++
				continue // nil lane: its bit must stay 0
			}
			f := m.Fork()
			skip := rng.Intn(3) == 0
			for _, w := range gw {
				if !skip || rng.Intn(4) != 0 {
					f.WriteWord(w.addr, w.val)
				}
			}
			for k := rng.Intn(3); k > 0; k-- {
				a := pick()
				switch rng.Intn(3) {
				case 0:
					f.WriteWord(a, golden.ReadWord(a)) // private, golden value
				case 1:
					f.WriteWord(a, rng.Uint32())
				default:
					// Written wrong, then restored: dirty, golden-equal.
					f.WriteWord(a, ^golden.ReadWord(a))
					f.WriteWord(a, golden.ReadWord(a))
				}
			}
			for k := rng.Intn(3); k > 0; k-- {
				a := pick()
				mask := uint32(1) << uint(rng.Intn(32))
				if rng.Intn(2) == 0 {
					mask |= uint32(1) << uint(rng.Intn(32)) // may escape SECDED
				}
				// Stuck at the bits' current value half the time: invisible.
				high := f.ReadWord(a)&mask == mask
				if rng.Intn(2) == 0 {
					high = !high
				}
				if err := f.InjectStuckAt(a, mask, high); err != nil {
					t.Fatal(err)
				}
			}
			lanes[i] = f
		}

		if trial%4 == 3 {
			root := New()
			root.CopyFrom(m)
			for _, w := range gw {
				root.WriteWord(w.addr, w.val)
			}
			for _, f := range lanes {
				if f != nil {
					f.Rebase(root)
				}
			}
			golden = root
		}

		var want uint64
		for i, f := range lanes {
			if f == nil {
				continue
			}
			if !golden.IsFork() && wordsDiffer(f, golden) != f.DivergesFrom(golden) {
				t.Fatalf("trial %d lane %d: DivergesFrom a root golden disagrees with a word-by-word comparison", trial, i)
			}
			if f.DivergesFrom(golden) {
				want |= uint64(1) << uint(i)
				diverged++
			} else {
				matched++
			}
		}
		if got := BatchDiverges(golden, lanes); got != want {
			t.Fatalf("trial %d, %d lanes: BatchDiverges = %#x, DivergesFrom lane by lane = %#x",
				trial, len(lanes), got, want)
		}
	}
	// The generator must exercise both verdicts and nil lanes, or the
	// property holds vacuously.
	if diverged == 0 || matched == 0 || nilLanes == 0 {
		t.Fatalf("generator coverage: %d divergent, %d matching, %d nil lanes", diverged, matched, nilLanes)
	}
}

// wordsDiffer reports whether any word of a and b resolves differently.
func wordsDiffer(a, b *Memory) bool {
	for w := 0; w < a.Size(); w += arch.WordBytes {
		if a.ReadWord(arch.Addr(w)) != b.ReadWord(arch.Addr(w)) {
			return true
		}
	}
	return false
}
