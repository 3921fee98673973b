package simt

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// Driver executes kernels warp-by-warp against one device memory image.
// Configure Reader to interpose a protection scheme; enable Tracing to
// capture per-warp instruction traces, which feed both the timing
// simulator and the access profile. The zero Reader reads memory directly.
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
	// results. Stores remain strict.
	PermissiveOOB bool
	// Capture, when non-nil, records every warp's loads and stores into the
	// log (one KernelCapture appended per Run) for batched campaign replay.
	Capture *CaptureLog

	reader  WordReader
	grid    arch.Dim3
	warpCtx *WarpCtx
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
	d.reader = d.Reader
	if d.reader == nil {
		d.reader = directReader{d.Mem}
	}
	d.grid = k.Grid

	warpsPerCTA := k.WarpsPerCTA()
	threadsPerCTA := k.Block.Count()
	var trace *KernelTrace
	if d.Tracing {
		trace = &KernelTrace{
			Kernel:      k.KernelName,
			WarpsPerCTA: warpsPerCTA,
			NumCTAs:     k.Grid.Count(),
			Warps:       make([][]Instr, k.Grid.Count()*warpsPerCTA),
		}
	}
	var kcap *KernelCapture
	var seen *BlockSet
	if d.Capture != nil {
		kcap = &KernelCapture{
			Kernel: k,
			Warps:  make([]*WarpCapture, k.Grid.Count()*warpsPerCTA),
		}
		d.Capture.Kernels = append(d.Capture.Kernels, kcap)
		seen = NewBlockSet(d.Mem.TotalBlocks())
	}

	ctx := &WarpCtx{blockDim: k.Block, drv: d, tracing: d.Tracing}
	for cz := 0; cz < max(1, k.Grid.Z); cz++ {
		for cy := 0; cy < max(1, k.Grid.Y); cy++ {
			for cx := 0; cx < max(1, k.Grid.X); cx++ {
				ctaIdx := arch.Dim3{X: cx, Y: cy, Z: cz}
				ctaLinear := k.Grid.Flatten(ctaIdx)
				for wi := 0; wi < warpsPerCTA; wi++ {
					lanes := arch.WarpSize
					if rem := threadsPerCTA - wi*arch.WarpSize; rem < lanes {
						lanes = rem
					}
					ctx.CTAIdx = ctaIdx
					ctx.WarpInCTA = wi
					ctx.GlobalWarpID = ctaLinear*warpsPerCTA + wi
					ctx.NumLanes = lanes
					ctx.linearBase = ctaLinear*threadsPerCTA + wi*arch.WarpSize
					ctx.cacheThreadIdx()
					ctx.trace = nil
					if kcap != nil {
						ctx.capture = &WarpCapture{
							CTAIdx:       ctaIdx,
							WarpInCTA:    wi,
							GlobalWarpID: ctx.GlobalWarpID,
							NumLanes:     lanes,
						}
					}
					k.Run(ctx)
					if ctx.err != nil {
						return nil, fmt.Errorf("simt: kernel %q warp %d: %w",
							k.KernelName, ctx.GlobalWarpID, ctx.err)
					}
					if trace != nil {
						trace.Warps[ctx.GlobalWarpID] = ctx.trace
					}
					if kcap != nil {
						ctx.capture.LoadBlocks = loadFootprint(ctx.capture.Loads, seen)
						kcap.Warps[ctx.GlobalWarpID] = ctx.capture
						ctx.capture = nil
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

// RunWarp executes one recorded warp of k against the driver's memory. rp,
// when non-nil, serves loads from the recording wherever the lane's
// divergent words stay clear of them (the batched-campaign fast path); nil
// executes the warp plainly. Errors carry the same wrapping Run would give the same
// warp. The driver's warp context is reused across calls, mirroring how Run
// reuses one context for a whole launch.
func (d *Driver) RunWarp(k *Kernel, wc *WarpCapture, rp *LaneReplay) error {
	d.reader = d.Reader
	if d.reader == nil {
		d.reader = directReader{d.Mem}
	}
	d.grid = k.Grid
	ctx := d.warpCtx
	if ctx == nil {
		ctx = &WarpCtx{}
		d.warpCtx = ctx
	}
	ctx.blockDim = k.Block
	ctx.drv = d
	ctx.tracing = false
	ctx.trace = nil
	ctx.err = nil
	ctx.capture = nil
	ctx.CTAIdx = wc.CTAIdx
	ctx.WarpInCTA = wc.WarpInCTA
	ctx.GlobalWarpID = wc.GlobalWarpID
	ctx.NumLanes = wc.NumLanes
	ctx.linearBase = k.Grid.Flatten(wc.CTAIdx)*k.Block.Count() + wc.WarpInCTA*arch.WarpSize
	ctx.cacheThreadIdx()
	ctx.replay = rp
	k.Run(ctx)
	ctx.replay = nil
	if ctx.err != nil {
		return fmt.Errorf("simt: kernel %q warp %d: %w", k.KernelName, wc.GlobalWarpID, ctx.err)
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
