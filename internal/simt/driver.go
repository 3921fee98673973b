package simt

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// Driver executes kernels warp-by-warp against one device memory image.
// Configure Reader to interpose a protection scheme; enable Tracing to
// capture per-warp instruction traces, which feed both the timing
// simulator and the access profile; set Capture to record every warp's
// loads and stores for batched campaign replay. Run executes a whole
// launch and RunWarp one recorded warp of it; both place the driver's one
// reusable warp context the same way (warp).
type Driver struct {
	// Mem is the device memory the kernels run against.
	Mem *mem.Memory
	// Reader interposes on every lane read; nil reads Mem directly.
	Reader WordReader
	// Tracing captures per-warp instruction traces when true.
	Tracing bool
	// PermissiveOOB makes out-of-bounds lane loads read (wrapped) device
	// memory instead of aborting the launch — the behaviour of real GPU
	// global loads whose address was corrupted by a fault: they fetch
	// whatever the address resolves to. Fault-injection campaigns enable
	// this so corrupted-index faults propagate to the output (and are
	// judged by the SDC metric) rather than crashing the run. Clean runs
	// never go out of bounds, so the mode does not change fault-free
	// results; strict mode (the default, and TraceRun's) is what catches a
	// kernel bug that indexes past its object. Stores remain strict.
	PermissiveOOB bool
	// Capture, when non-nil, records every warp's loads and stores into the
	// log (one launch's warp records appended per Run).
	Capture *CaptureLog

	reader  WordReader
	warpCtx *WarpCtx
}

// warp resolves the driver's reader and returns its one warp context,
// placed at warp wi of CTA cta of k, with every per-warp field reset: the
// sticky error, the trace, the capture and the replay.
func (d *Driver) warp(k *Kernel, cta arch.Dim3, wi int) *WarpCtx {
	d.reader = d.Reader
	if d.reader == nil {
		d.reader = directReader{d.Mem}
	}
	w := d.warpCtx
	if w == nil {
		w = &WarpCtx{drv: d}
		d.warpCtx = w
	}
	ctaLinear, threads := k.Grid.Flatten(cta), k.Block.Count()
	w.CTAIdx, w.WarpInCTA, w.blockDim = cta, wi, k.Block
	w.GlobalWarpID = ctaLinear*k.WarpsPerCTA() + wi
	w.NumLanes = min(arch.WarpSize, threads-wi*arch.WarpSize)
	w.linearBase = ctaLinear*threads + wi*arch.WarpSize
	w.cacheThreadIdx()
	w.tracing, w.trace, w.err = d.Tracing, nil, nil
	w.capture, w.replay = nil, nil
	return w
}

// warpErr wraps a warp's sticky error with the kernel and warp it ended.
func warpErr(k *Kernel, w *WarpCtx) error {
	return fmt.Errorf("simt: kernel %q warp %d: %w", k.KernelName, w.GlobalWarpID, w.err)
}

// Run executes the kernel to completion, returning the captured trace when
// tracing is enabled. A protection-scheme termination (or a kernel bug such
// as an out-of-bounds access) aborts the launch and is returned as an error.
func (d *Driver) Run(k *Kernel) (*KernelTrace, error) {
	if k.Run == nil {
		return nil, fmt.Errorf("simt: kernel %q has no warp program", k.KernelName)
	}
	if k.Grid.X <= 0 || k.Block.X <= 0 {
		return nil, fmt.Errorf("simt: kernel %q: launch geometry must set grid.X and block.X, got grid=%v block=%v",
			k.KernelName, k.Grid, k.Block)
	}
	perCTA := k.WarpsPerCTA()
	var trace *KernelTrace
	if d.Tracing {
		trace = &KernelTrace{
			Kernel:      k.KernelName,
			WarpsPerCTA: perCTA,
			NumCTAs:     k.Grid.Count(),
			Warps:       make([][]Instr, k.TotalWarps()),
		}
	}
	var warps []*WarpCapture
	var seen *BlockSet
	if d.Capture != nil {
		warps = make([]*WarpCapture, k.TotalWarps())
		d.Capture.Warps = append(d.Capture.Warps, warps)
		seen = NewBlockSet(d.Mem.TotalBlocks())
	}
	for cz := 0; cz < max(1, k.Grid.Z); cz++ {
		for cy := 0; cy < max(1, k.Grid.Y); cy++ {
			for cx := 0; cx < max(1, k.Grid.X); cx++ {
				cta := arch.Dim3{X: cx, Y: cy, Z: cz}
				for wi := 0; wi < perCTA; wi++ {
					w := d.warp(k, cta, wi)
					if warps != nil {
						w.capture = &WarpCapture{
							CTAIdx:       cta,
							WarpInCTA:    wi,
							GlobalWarpID: w.GlobalWarpID,
							NumLanes:     w.NumLanes,
						}
					}
					k.Run(w)
					if w.err != nil {
						return nil, warpErr(k, w)
					}
					if trace != nil {
						trace.Warps[w.GlobalWarpID] = w.trace
					}
					if warps != nil {
						w.capture.LoadBlocks = loadFootprint(w.capture.Loads, seen)
						warps[w.GlobalWarpID] = w.capture
					}
				}
			}
		}
	}
	return trace, nil
}

// loadFootprint returns the deduplicated union of the loads' blocks, in
// first-touch order. seen must be empty, and is left empty: every bit set
// here belongs to a block of the union, so clearing the union's bitset
// words clears them all.
func loadFootprint(loads []LoadRec, seen *BlockSet) []arch.BlockAddr {
	var union []arch.BlockAddr
	for i := range loads {
		for _, b := range loads[i].Blocks {
			if !seen.Has(b) {
				seen.Add(b)
				union = append(union, b)
			}
		}
	}
	for _, b := range union {
		seen.bits[uint(b)/64] = 0
	}
	return union
}

// RunWarp executes one recorded warp of k against the driver's memory for
// a campaign lane: rp is rebound to wc, serves loads from the recording
// wherever the lane's divergent words stay clear of them, and grows the
// lane's dirty set by what the warp makes divergent — if the warp leaves
// the recorded sequence, by every word it or the recording stores after
// the mismatch (see LaneReplay). Errors carry the same wrapping Run would
// give the same warp.
func (d *Driver) RunWarp(k *Kernel, wc *WarpCapture, rp *LaneReplay) error {
	w := d.warp(k, wc.CTAIdx, wc.WarpInCTA)
	rp.reset(wc)
	w.replay = rp
	k.Run(w)
	w.replay = nil
	if w.err != nil {
		return warpErr(k, w)
	}
	rp.finish()
	return nil
}
