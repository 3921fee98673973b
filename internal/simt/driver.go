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
	// log (one Launch appended per Run).
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
	ctaLinear := k.Grid.Flatten(cta)
	w.CTAIdx, w.WarpInCTA, w.blockDim = cta, wi, k.Block
	w.GlobalWarpID = ctaLinear*k.WarpsPerCTA() + wi
	w.NumLanes = k.WarpLanes(wi)
	w.linearBase = ctaLinear*k.Block.Count() + wi*arch.WarpSize
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
	var rec *Launch
	var seen *BlockSet
	if d.Capture != nil {
		rec = &Launch{Warps: make(Arena[WarpRec], k.TotalWarps())}
		seen = NewBlockSet(d.Mem.TotalBlocks())
	}
	for cz := 0; cz < max(1, k.Grid.Z); cz++ {
		for cy := 0; cy < max(1, k.Grid.Y); cy++ {
			for cx := 0; cx < max(1, k.Grid.X); cx++ {
				cta := arch.Dim3{X: cx, Y: cy, Z: cz}
				for wi := 0; wi < perCTA; wi++ {
					w := d.warp(k, cta, wi)
					if rec != nil {
						rec.openWarp(w.GlobalWarpID)
						w.capture = rec
					}
					k.Run(w)
					if w.err != nil {
						return nil, warpErr(k, w)
					}
					if trace != nil {
						trace.Warps[w.GlobalWarpID] = w.trace
					}
					if rec != nil {
						rec.closeWarp(w.GlobalWarpID, seen)
					}
				}
			}
		}
	}
	if rec != nil {
		if err := rec.clip(); err != nil {
			return nil, fmt.Errorf("simt: kernel %q: %w", k.KernelName, err)
		}
		d.Capture.Launches = append(d.Capture.Launches, *rec)
	}
	return trace, nil
}

// RunWarp executes global warp g of k, recorded as rw, against the
// driver's memory for a campaign lane: rp is rebound to rw, serves loads
// from the recording wherever the lane's divergent words stay clear of
// them, and grows the lane's dirty set by what the warp makes divergent —
// if the warp leaves the recorded sequence, by every word it or the
// recording stores after the mismatch (see LaneReplay). Errors carry the
// same wrapping Run would give the same warp.
func (d *Driver) RunWarp(k *Kernel, g int, rw *Warp, rp *LaneReplay) error {
	cta, wi := k.WarpAt(g)
	w := d.warp(k, cta, wi)
	rp.reset(rw)
	w.replay = rp
	k.Run(w)
	w.replay = nil
	if w.err != nil {
		return warpErr(k, w)
	}
	rp.finish()
	return nil
}
