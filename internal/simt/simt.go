// Package simt provides the warp-lockstep execution model that GPGPU
// kernels in this repository are written against. A kernel is executed one
// warp at a time; each warp-level load/store is coalesced into 128 B block
// transactions exactly as the LD/ST unit would issue them. A single
// execution pass performs the real computation (reading device memory
// through the fault overlay and, when enabled, the replication schemes) and
// optionally captures a per-warp instruction trace, which the timing
// simulator replays and the access profile folds.
package simt

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// InstrKind discriminates trace instructions.
type InstrKind uint8

// Trace instruction kinds.
const (
	// InstrCompute is a block of back-to-back ALU operations.
	InstrCompute InstrKind = iota + 1
	// InstrLoad is a global memory read (one or more coalesced transactions).
	InstrLoad
	// InstrStore is a global memory write.
	InstrStore
)

// String renders the kind.
func (k InstrKind) String() string {
	switch k {
	case InstrCompute:
		return "compute"
	case InstrLoad:
		return "load"
	case InstrStore:
		return "store"
	default:
		return fmt.Sprintf("instrkind(%d)", int(k))
	}
}

// Instr is one warp-level instruction in a captured trace.
type Instr struct {
	// Kind discriminates the variant.
	Kind InstrKind
	// PC is the static load/store site ID (unique per app).
	PC uint16
	// BufID identifies the data object accessed (loads/stores).
	BufID int16
	// Ops is the number of collapsed ALU operations (compute only).
	Ops int32
	// Blocks are the coalesced 128 B transactions (loads/stores).
	Blocks []arch.BlockAddr
}

// Site is a static memory instruction — the "load instruction address" the
// paper's LD/ST-unit tables track. Allocate one per source-level access with
// App.NewSite; PCs are dense and unique within an application.
type Site struct {
	// PC is the static instruction address (dense ID).
	PC uint16
	// Name labels the access for reports, e.g. "k1.ld.A".
	Name string
}

// WordReader resolves one lane's 32-bit read. The zero configuration reads
// device memory directly (through the fault overlay); the replication
// manager in internal/core wraps this to implement duplication comparison
// and triplication voting.
type WordReader interface {
	// ReadLaneWord returns the word at addr within buf. A non-nil error
	// terminates the kernel (the paper's detection-scheme terminate signal).
	ReadLaneWord(buf *mem.Buffer, addr arch.Addr) (uint32, error)
}

// directReader reads device memory with no protection interposed.
type directReader struct{ m *mem.Memory }

func (r directReader) ReadLaneWord(_ *mem.Buffer, addr arch.Addr) (uint32, error) {
	return r.m.ReadWord(addr), nil
}

// Kernel is one GPU kernel: a launch geometry plus a warp program.
type Kernel struct {
	// KernelName labels the kernel ("bicg_kernel1").
	KernelName string
	// Grid is the CTA grid extent.
	Grid arch.Dim3
	// Block is the per-CTA thread extent.
	Block arch.Dim3
	// Run executes one warp of the kernel.
	Run func(w *WarpCtx)
}

// WarpsPerCTA returns the number of warps each CTA launches.
func (k *Kernel) WarpsPerCTA() int {
	return (k.Block.Count() + arch.WarpSize - 1) / arch.WarpSize
}

// TotalWarps returns the number of warps in the whole launch.
func (k *Kernel) TotalWarps() int { return k.Grid.Count() * k.WarpsPerCTA() }

// WarpAt returns the CTA and the warp within it of the launch's global
// warp g, in Driver.Run's order: x-major CTAs, warps within each.
func (k *Kernel) WarpAt(g int) (cta arch.Dim3, wi int) {
	perCTA, gx, gy := k.WarpsPerCTA(), max(1, k.Grid.X), max(1, k.Grid.Y)
	c := g / perCTA
	return arch.Dim3{X: c % gx, Y: c / gx % gy, Z: c / (gx * gy)}, g % perCTA
}

// WarpLanes returns the lane count of a CTA's warp wi: 32, or fewer for a
// CTA's partial tail warp.
func (k *Kernel) WarpLanes(wi int) int {
	return min(arch.WarpSize, k.Block.Count()-wi*arch.WarpSize)
}

// KernelTrace is the captured trace of one kernel launch.
type KernelTrace struct {
	// Kernel names the traced launch.
	Kernel string
	// WarpsPerCTA and NumCTAs describe the launch geometry.
	WarpsPerCTA int
	NumCTAs     int
	// Warps holds each warp's instruction sequence, indexed by global warp
	// ID (ctaLinear*WarpsPerCTA + warpInCTA).
	Warps [][]Instr
}

// Instructions returns the total instruction count across warps.
func (t *KernelTrace) Instructions() int {
	n := 0
	for _, w := range t.Warps {
		n += len(w)
	}
	return n
}

// Transactions returns the total coalesced memory transactions in the trace.
func (t *KernelTrace) Transactions() int {
	n := 0
	for _, w := range t.Warps {
		for i := range w {
			n += len(w[i].Blocks)
		}
	}
	return n
}
