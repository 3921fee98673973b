package timing

import (
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
)

// FuzzScheduler checks the timing wheel against refScheduler on arbitrary
// interleavings of schedules and pops. The input is a small program: each
// opcode byte (taken modulo 5) reads its operand bytes, and missing
// operands read as zero.
//
//	0  schedule near: distance = b % 64
//	1  schedule far: distance = (b0 | b1<<8) % (4*wheelSpan + 1)
//	2  schedule at a recently scheduled cycle (or now, if later); one
//	   cycle can land first in the overflow heap and later in the wheel
//	3  pop up to 1 + b%8 events, each through popBefore with the bound
//	   now + 16·(b>>3), or no bound when b>>3 is 0; a refused pop ends
//	   the op
//	4  idle gap: drain everything, then resume wheelSpan·(1+b) cycles later
//
// Every pop must match the reference's (id, at, seq), time must never run
// backwards, and both must agree on the pending count after every op.
// Programs are cut at maxSchedulerProgram bytes: the scan reference is
// quadratic, and longer programs only repeat the same interleavings.
func FuzzScheduler(f *testing.F) {
	const maxSchedulerProgram = 4096
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > maxSchedulerProgram {
			prog = prog[:maxSchedulerProgram]
		}
		var (
			s      scheduler
			ref    refScheduler
			now    int64
			nextID uint64
			recent []int64
		)
		operand := func() int64 {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int64(b)
		}
		add := func(at int64) {
			s.schedule(event{at: at, blk: arch.BlockAddr(nextID)}, now)
			ref.schedule(at, nextID)
			nextID++
			if len(recent) == 16 {
				recent = recent[1:]
			}
			recent = append(recent, at)
		}
		// popOne pops through popBefore(end) and reports whether an event
		// was due before end.
		popOne := func(end int64) bool {
			var got event
			ok := s.popBefore(end, &got)
			want, wantOK := ref.popBefore(end)
			if ok != wantOK {
				t.Fatalf("popBefore(%d) reported %v, reference %v", end, ok, wantOK)
			}
			if !ok {
				return false
			}
			if got.blk != want.blk || got.at != want.at || got.seq != want.seq {
				t.Fatalf("popped (id %d, at %d, seq %d), reference (id %d, at %d, seq %d)",
					got.blk, got.at, got.seq, want.blk, want.at, want.seq)
			}
			if got.at < now {
				t.Fatalf("time ran backwards: %d < %d", got.at, now)
			}
			now = got.at
			return true
		}
		for len(prog) > 0 {
			op := prog[0] % 5
			prog = prog[1:]
			switch op {
			case 0:
				add(now + operand()%64)
			case 1:
				d := operand() | operand()<<8
				add(now + d%(4*wheelSpan+1))
			case 2:
				at := now
				if k := operand(); len(recent) > 0 && recent[int(k)%len(recent)] > at {
					at = recent[int(k)%len(recent)]
				}
				add(at)
			case 3:
				b := operand()
				end := int64(noEvent)
				if b>>3 != 0 {
					end = now + 16*(b>>3)
				}
				for n := 1 + b%8; n > 0; n-- {
					if !popOne(end) {
						break
					}
				}
			case 4:
				for popOne(noEvent) {
				}
				now += wheelSpan * (1 + operand())
			}
			if s.pending() != len(ref.evs) {
				t.Fatalf("scheduler holds %d events, reference %d", s.pending(), len(ref.evs))
			}
		}
		for popOne(noEvent) {
		}
		if len(ref.evs) != 0 || !s.empty() {
			t.Fatalf("scheduler empty but reference holds %d events", len(ref.evs))
		}
	})
}
