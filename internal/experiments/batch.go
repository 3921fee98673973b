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
//     grows only by the words an executed warp makes divergent. A fault
//     word in a replica of a protected object seeds the same word of its
//     primary instead, so the one recording of the application serves
//     every protection configuration.
//   - A lane only *executes* the warps one of whose recorded loads reads a
//     dirty word; every other warp is reproduced from its recorded stores
//     (see internal/simt/replay.go for the soundness argument, and for how
//     a warp that leaves the recorded sequence resyncs the lane). A
//     per-block bitset filters first.
//   - Executed warps still serve each clean lane of a load from the
//     recording, reading from the fork only the words where the lane's
//     corruption can show through.
//   - All surviving lanes are then classified in one bit-parallel sweep
//     sharing one golden-image divergence scan
//     (fault.Classifier.ClassifyBatch over mem.BatchDiverges).
//
// The golden run's progress is held once per claim, not once per lane: a
// shared image, loaded from the checkpoint image, takes each recorded
// warp's stores once, after every live lane has stepped through that warp,
// and every lane is a copy-on-write fork rebased onto it. A block a lane
// does not hold privately therefore reads as the golden run's value at the
// current warp, and three rules keep each lane bit-exact:
//
//   - A reproduced warp writes its recorded stores only into the blocks
//     the lane already holds privately; the shared image supplies the rest.
//   - After a lane executes a warp, every block the warp's recording
//     stores to is made private before the shared image takes those
//     stores, so the lane keeps what it wrote, or left unwritten, there.
//   - The lanes are classified against the claim's final image, which
//     equals the golden post-run image.
//
// A lane therefore copies only the blocks its executed warps write, not
// every block the golden run writes. The shared images come from a
// suite-wide free-list of at most GOMAXPROCS, and no lane kit keeps a
// reference to one after its claim. Every application keeps its recording
// at every scale, so this is the only way a claim executes.
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
	// copied0 is the fork's CopiedBlocks when the kit was drawn, so the
	// lane's copy count includes what injection materializes.
	copied0 uint64
	drv     *simt.Driver
	err     error
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
		copied0 := f.CopiedBlocks()
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
		ln := &batchLane{idx: i, laneKit: kit, copied0: copied0}
		scratch = f.DirtyBlockList(scratch[:0])
		for _, b := range scratch {
			ln.dirty.AddBlock(primary(b.Base()).Block())
		}
		for w := 0; w < f.FaultCount(); w++ {
			ln.dirty.AddWord(primary(f.FaultWord(w)))
		}
		ln.drv = &simt.Driver{Mem: f, Reader: cp.Plan.ForMemory(f), PermissiveOOB: true}
		lanes = append(lanes, ln)
	}

	if cp.tele.batches != nil {
		cp.tele.batches.Inc()
		cp.tele.occupancy.Observe(float64(len(lanes)))
	}
	if len(lanes) == 0 {
		return outs, nil
	}

	img := cp.suite.claimImage(cp.App.Mem)
	for _, ln := range lanes {
		ln.fork.Rebase(img)
	}
	defer func() {
		// Lanes drop the shared image before it can serve another claim
		// (this runs before the kits return to their free-list).
		for _, ln := range lanes {
			ln.fork.Rebase(cp.App.Mem)
		}
		cp.suite.images.put(img)
	}()
	cp.replayGroup(cp.capture, lanes, img)
	classifier := cp.classifier
	classifier.GoldenPost = img
	if cp.tele.runs != nil {
		cp.tele.runs.Add(uint64(len(lanes)))
		cp.tele.batchRuns.Add(uint64(len(lanes)))
		var copies uint64
		for _, ln := range lanes {
			copies += ln.fork.CopiedBlocks() - ln.copied0
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
	verdicts, err := classifier.ClassifyBatch(errs, forks, cp.App.Output)
	if err != nil {
		return nil, err
	}
	for j, ln := range lanes {
		outs[ln.idx] = verdicts[j]
	}
	return outs, nil
}

// replayGroup runs every lane of the group through the recording (the
// warp records of each launch, as simt.CaptureLog holds them) while img
// takes the golden run's progress: per recorded warp (in launch order, the
// serial execution order), each live lane either executes the warp for
// real, on launch i's kernel from the application's kernel list, because
// one of the warp's recorded loads reads a divergent word, or reproduces
// it, and then img takes the warp's recorded stores. The lanes are forks
// of img, kept bit-exact by the three rules in the file comment.
func (cp *Checkpoint) replayGroup(warps [][]*simt.WarpCapture, lanes []*batchLane, img *mem.Memory) {
	bufs := cp.App.Mem.Buffers()
	for _, ln := range lanes {
		ln.rp = simt.LaneReplay{Dirty: ln.dirty, Bufs: bufs}
	}
	var replayed, applied uint64
	for ki, launch := range warps {
		k := cp.App.Kernels[ki]
		for _, wc := range launch {
			for _, ln := range lanes {
				if ln.err != nil {
					// The serial run aborted here; skip the lane's
					// remaining warps exactly as Driver.Run would.
					continue
				}
				if !ln.rp.ReadsDirty(wc) {
					storePrivate(ln.fork, bufs, wc)
					applied++
					continue
				}
				if err := ln.drv.RunWarp(k, wc, &ln.rp); err != nil {
					ln.err = fmt.Errorf("kernels: %s: %w", cp.App.Name, err)
					continue
				}
				replayed++
				for i := range wc.Stores {
					for _, b := range wc.Stores[i].Blocks {
						ln.fork.MakePrivate(b)
					}
				}
			}
			storeAll(img, bufs, wc)
		}
	}
	if cp.tele.replayedWarps != nil {
		cp.tele.replayedWarps.Add(replayed)
		cp.tele.appliedWarps.Add(applied)
	}
}

// storeAll commits a recorded warp's stores to the shared image in program
// order, as the golden run did.
func storeAll(img *mem.Memory, bufs []*mem.Buffer, wc *simt.WarpCapture) {
	for i := range wc.Stores {
		rec := &wc.Stores[i]
		buf := bufs[rec.BufID]
		for lane, idx := range rec.Idx {
			if idx != simt.InactiveLane {
				img.WriteWord(buf.ElemAddr(int(idx)), rec.Vals[lane])
			}
		}
	}
}

// storePrivate reproduces a warp on a lane that does not execute it: the
// lane would compute exactly the recorded stores, because the warp reads
// no divergent word, so they are committed in program order to the blocks
// the lane holds privately; the shared image takes them for every other
// block.
func storePrivate(f *mem.Memory, bufs []*mem.Buffer, wc *simt.WarpCapture) {
	for i := range wc.Stores {
		rec := &wc.Stores[i]
		if !anyPrivate(f, rec.Blocks) {
			continue
		}
		buf := bufs[rec.BufID]
		for lane, idx := range rec.Idx {
			if idx == simt.InactiveLane {
				continue
			}
			if a := buf.ElemAddr(int(idx)); f.Private(a.Block()) {
				f.WriteWord(a, rec.Vals[lane])
			}
		}
	}
}

// anyPrivate reports whether the fork holds any of the blocks privately.
func anyPrivate(f *mem.Memory, blocks []arch.BlockAddr) bool {
	for _, b := range blocks {
		if f.Private(b) {
			return true
		}
	}
	return false
}
