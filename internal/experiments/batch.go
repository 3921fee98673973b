// Batched campaign execution: the one path by which a checkpoint classifies
// fault runs, up to mem.BatchLanes (64) runs per functional replay.
//
// Runs of one campaign share a Checkpoint — same app, scheme, level, and
// fault model — and differ only in which words are corrupted. The batched
// path exploits that: a claim of up to 64 pending runs is injected up
// front, runs that never need execution are peeled off (injection-time
// pre-classification, and provably inert faults, which are Masked), and
// the survivors become lanes of a group replay against the recording the
// golden run made (Checkpoint.ensureGolden):
//
//   - Each lane tracks its divergence from the golden run per 32-bit word
//     and by value (simt.DirtySet): it starts at the run's fault words and
//     grows only by the words an executed warp commits with a value other
//     than the recorded one. A fault word in a replica of a protected
//     object seeds the same word of its primary instead, so the one
//     recording of the application serves every protection configuration.
//   - A lane only *executes* the warps one of whose recorded loads reads a
//     dirty word; every other warp is reproduced by applying the recorded
//     golden stores to the lane's fork (see internal/simt/replay.go for the
//     soundness argument). A per-block bitset filters first.
//   - Executed warps still serve each clean lane of a load from the
//     recording, reading from the fork only the words where the lane's
//     corruption can show through.
//   - All surviving lanes are then classified in one bit-parallel sweep
//     sharing one golden-image divergence scan
//     (fault.Classifier.ClassifyBatch over mem.BatchDiverges).
//
// When no capture is available — the recording exceeded maxCaptureBytes —
// the batch degrades to block-granular amortization: each lane executes
// in full, exactly as a serial run would, but fork setup, checkpoint
// fetch, and the classification sweep remain shared across the group.
package experiments

import (
	"fmt"
	"math/rand"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/mem"
	"github.com/datacentric-gpu/dcrm/internal/simt"
)

// batchLane is one surviving run of a batched claim: its fork, its
// divergent-word set, and its per-lane execution state.
type batchLane struct {
	idx int // claim-relative run index
	laneKit
	drv *simt.Driver
	err error
	// taint marks a lane whose executed instruction sequence desynced from
	// the recording: its writes can no longer be bounded, so every
	// remaining warp executes in full.
	taint bool
	// rp is the lane's reusable replay state, rebound per executed warp.
	rp simt.LaneReplay
}

// RunBatch executes one claim of up to mem.BatchLanes runs, rngs[i]
// carrying run i's randomness: inject all runs, peel off pre-classified
// and inert ones, group-replay the survivors against the reference
// recording, and classify them in one bit-parallel sweep. Each rng is
// consumed only by its own run's injection, and the replay reproduces the
// serial execution exactly, so outcome i equals the clone-per-run
// reference's verdict for run i (gated by the parity tests). A longer
// claim is an error. Safe for concurrent invocation.
func (cp *Checkpoint) RunBatch(rngs []*rand.Rand, model fault.Model, sel fault.Selector) ([]fault.Outcome, error) {
	if len(rngs) > mem.BatchLanes {
		return nil, fmt.Errorf("experiments: claim of %d runs exceeds one %d-lane sweep", len(rngs), mem.BatchLanes)
	}
	if err := cp.ensureGolden(); err != nil {
		return nil, err
	}
	var env fault.Env
	if fault.NeedsTimeline(model) {
		tl, err := cp.Timeline()
		if err != nil {
			return nil, err
		}
		env.Timeline = tl
	}
	env.Scratch = cp.getScratch()
	defer cp.scratches.put(env.Scratch)

	outs := make([]fault.Outcome, len(rngs))
	lanes := make([]*batchLane, 0, len(rngs))
	defer func() {
		for _, ln := range lanes {
			cp.kits.put(ln.laneKit)
		}
	}()

	// primary maps a replica word to its primary word (the identity when
	// unprotected). The recording holds no replica: the scheme reads a copy
	// with every load of its primary word, and no kernel stores to either,
	// so a copy's word diverges exactly when injection made it diverge, and
	// "the primary word or one of its copies is dirty" — what a load must
	// check — holds exactly when the seeded primary word is dirty.
	primary := func(a arch.Addr) arch.Addr { return a }
	if cp.Plan != nil {
		primary = cp.Plan.PrimaryWord
	}
	var scratch []arch.BlockAddr
	for i, rng := range rngs {
		kit := cp.getKit()
		f := kit.fork
		inj, err := fault.Inject(f, rng, model, sel, &env)
		if err != nil {
			cp.kits.put(kit)
			return nil, err
		}
		if inj.Pre != 0 {
			if cp.tele.pre != nil {
				cp.tele.pre.Inc()
			}
			outs[i] = inj.Pre
			cp.kits.put(kit)
			continue
		}
		// The inert prune only applies to overlay faults; a transient flip
		// is a genuine store (DirtyBlocks > 0) that must execute even
		// though the overlay is empty (FaultsInert is vacuously true then).
		if f.DirtyBlocks() == 0 && f.FaultsInert() {
			if cp.tele.pruned != nil {
				cp.tele.pruned.Inc()
			}
			outs[i] = fault.Masked
			cp.kits.put(kit)
			continue
		}
		// Seed the divergent words: every word of a block a transient flip
		// materialized (conservative), and each stuck-at or burst overlay
		// word — a replica's through primary, as the word or block of the
		// protected object the scheme reads it with (see primary below).
		ln := &batchLane{idx: i, laneKit: kit}
		scratch = f.DirtyBlockList(scratch[:0])
		for _, b := range scratch {
			ln.dirty.AddBlock(primary(b.Base()).Block())
		}
		for w := 0; w < f.FaultCount(); w++ {
			ln.dirty.AddWord(primary(f.FaultWord(w)))
		}
		ln.drv = &simt.Driver{Mem: f, PermissiveOOB: true}
		if cp.Plan != nil {
			ln.drv.Reader = cp.Plan.ForMemory(f)
		}
		lanes = append(lanes, ln)
	}

	if cp.tele.batches != nil {
		cp.tele.batches.Inc()
		cp.tele.occupancy.Observe(float64(len(lanes)))
	}
	if len(lanes) == 0 {
		return outs, nil
	}

	copiedBefore := make([]uint64, len(lanes))
	for li, ln := range lanes {
		copiedBefore[li] = ln.fork.CopiedBlocks()
	}
	if cp.capture != nil {
		cp.replayGroup(cp.capture, lanes)
	} else {
		// Fallback: block-granular batching only — every lane executes in
		// full, sharing fork setup and the classification sweep below.
		if cp.tele.fallbackRuns != nil {
			cp.tele.fallbackRuns.Add(uint64(len(lanes)))
		}
		for _, ln := range lanes {
			if cp.Plan != nil {
				ln.err = cp.App.RunOn(ln.fork, cp.Plan.ForMemory(ln.fork))
			} else {
				ln.err = cp.App.RunOn(ln.fork, nil)
			}
		}
	}
	if cp.tele.runs != nil {
		cp.tele.runs.Add(uint64(len(lanes)))
		cp.tele.batchRuns.Add(uint64(len(lanes)))
		var copies uint64
		for li, ln := range lanes {
			copies += ln.fork.CopiedBlocks() - copiedBefore[li]
		}
		cp.tele.copies.Add(copies)
	}

	// Bit-parallel classification: the whole claim in one sweep.
	errs := make([]error, len(lanes))
	forks := make([]*mem.Memory, len(lanes))
	for j, ln := range lanes {
		errs[j] = ln.err
		forks[j] = ln.fork
	}
	verdicts, err := cp.classifier.ClassifyBatch(errs, forks, cp.App.Output)
	if err != nil {
		return nil, err
	}
	for j, ln := range lanes {
		outs[ln.idx] = verdicts[j]
	}
	return outs, nil
}

// replayGroup runs every lane of the group through the recorded execution:
// per recorded warp (in launch order, the serial execution order), each
// live lane either executes the warp for real — because one of the warp's
// recorded loads reads a divergent word, or because the lane is tainted —
// or reproduces it by applying the recorded stores. An executed warp that
// stays in sync adds to the lane's dirty set, as it commits them, exactly
// the words whose value differs from the recorded store.
func (cp *Checkpoint) replayGroup(log *simt.CaptureLog, lanes []*batchLane) {
	bufs := cp.App.Mem.Buffers()
	for _, ln := range lanes {
		ln.rp = simt.LaneReplay{Dirty: ln.dirty, Bufs: bufs}
	}
	var replayed, applied uint64
	for _, kc := range log.Kernels {
		for _, wc := range kc.Warps {
			for _, ln := range lanes {
				if ln.err != nil {
					// The serial run aborted here; skip the lane's
					// remaining warps exactly as Driver.Run would.
					continue
				}
				if !ln.taint && !ln.rp.ReadsDirty(wc) {
					applyWarpStores(ln.fork, bufs, wc)
					applied++
					continue
				}
				var rp *simt.LaneReplay
				if !ln.taint {
					rp = &ln.rp
					rp.Reset(wc)
				}
				if err := ln.drv.RunWarp(kc.Kernel, wc, rp); err != nil {
					ln.err = fmt.Errorf("kernels: %s: %w", cp.App.Name, err)
					continue
				}
				replayed++
				if rp != nil && rp.Desync {
					ln.taint = true
				}
			}
		}
	}
	if cp.tele.replayedWarps != nil {
		cp.tele.replayedWarps.Add(replayed)
		cp.tele.appliedWarps.Add(applied)
	}
}

// applyWarpStores reproduces an untouched warp on a lane's fork by
// committing its recorded stores in program order — word-exact, because an
// untouched warp reads no divergent word, so its real execution would
// compute exactly the recorded values and addresses.
func applyWarpStores(f *mem.Memory, bufs []*mem.Buffer, wc *simt.WarpCapture) {
	for i := range wc.Stores {
		rec := &wc.Stores[i]
		buf := bufs[rec.BufID]
		for lane, idx := range rec.Idx {
			if idx == simt.InactiveLane {
				continue
			}
			f.WriteWord(buf.ElemAddr(int(idx)), rec.Vals[lane])
		}
	}
}
