package timing

import (
	"math/rand"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/simt"
)

// refPickGTO is greedy-then-oldest by a full age scan: the last issued
// warp if it is still ready, else the ready warp of least age. It returns
// the pick and the lastIssued index the pick leaves behind.
func refPickGTO(s *smState, t int64) (*warpState, int) {
	last := s.lastIssued
	if last >= 0 && last < len(s.warps) {
		if w := s.warps[last]; w.ready(t) {
			return w, last
		}
	}
	var best *warpState
	for i, w := range s.warps {
		if w.ready(t) && (best == nil || w.age < best.age) {
			best, last = w, i
		}
	}
	return best, last
}

// TestPickWarpGTOMatchesAgeScan: with the resident warps kept in age order
// by installCTA and warpRetired, the first ready warp is the oldest ready
// one. Random readiness (ready times, parked warps, outstanding loads
// ahead of compute and stores, retired warps), random lastIssued values
// and random CTA retirements and installs must pick exactly what the full
// age scan picks and leave the same lastIssued.
func TestPickWarpGTOMatchesAgeScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const warpsPerCTA = 4
	var warps [][]simt.Instr
	for w := 0; w < 400*warpsPerCTA; w++ {
		if rng.Intn(10) == 0 {
			warps = append(warps, nil) // fully predicated: installs retired
			continue
		}
		var is []simt.Instr
		for i := 0; i < 1+rng.Intn(6); i++ {
			switch rng.Intn(3) {
			case 0:
				is = append(is, load(1, 0, arch.BlockAddr(rng.Intn(64))))
			case 1:
				is = append(is, compute(1))
			default:
				is = append(is, store(2, 0, arch.BlockAddr(rng.Intn(64))))
			}
		}
		warps = append(warps, is)
	}
	tr := mkTrace(warpsPerCTA, warps...)
	e, err := New(arch.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.resetForKernel(tr)
	s := e.sms[0]
	e.fillSM(s)

	picks := 0
	for step := 0; step < 20000; step++ {
		for i := 1; i < len(s.warps); i++ {
			if s.warps[i-1].age >= s.warps[i].age {
				t.Fatalf("step %d: resident warps out of age order at %d: %d then %d",
					step, i, s.warps[i-1].age, s.warps[i].age)
			}
		}
		for _, w := range s.warps {
			w.readyAt = int64(rng.Intn(20))
			if rng.Intn(8) == 0 {
				w.readyAt = stallParked
			}
			w.pendingLoads = rng.Intn(2)
			w.pc = rng.Intn(len(w.trace))
		}
		s.lastIssued = rng.Intn(len(s.warps)+2) - 1
		now := int64(rng.Intn(20))
		want, wantLast := refPickGTO(s, now)
		if got := s.pickWarp(now); got != want || s.lastIssued != wantLast {
			t.Fatalf("step %d: picked %p (lastIssued %d), age scan %p (lastIssued %d)", step, got, s.lastIssued, want, wantLast)
		}
		if want != nil {
			picks++
		}

		// Retire a random resident CTA now and then; the dispatcher's
		// next queued CTA takes its slot.
		if rng.Intn(4) == 0 && len(s.warps) > 0 {
			cta := s.warps[rng.Intn(len(s.warps))].cta
			for _, w := range s.warps {
				if w.cta == cta && !w.retired {
					w.retired = true
					e.warpRetired(s, w)
				}
			}
			e.pending = e.pending[:0]
			e.fillSM(s)
		}
		if len(s.warps) == 0 {
			break
		}
	}
	if picks == 0 {
		t.Fatal("no warp was ever ready")
	}
}
