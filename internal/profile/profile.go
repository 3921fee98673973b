// Package profile implements the paper's offline access-pattern analysis
// (Section III-B): per-block coalesced read counts (Fig. 3), warp-sharing
// percentages (Fig. 4), data-object attribution and ranking (Table III),
// and hot-block identification. A profile is a fold over the per-warp
// traces of one functional run (kernels.App.TraceRun), the same recording
// the timing simulator replays, so an application executes once offline
// for both, as the paper collects its profile once.
package profile

import (
	"sort"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/kernels"
	"github.com/datacentric-gpu/dcrm/internal/mem"
	"github.com/datacentric-gpu/dcrm/internal/simt"
)

// hotMedianRatio classifies a block as hot when its read count is at least
// this multiple of the median non-zero block read count — the automated
// stand-in for the paper's visual knee identification in Fig. 3. The knee
// ratio grows with problem size (for P-BICG it is ≈ N/33), so the threshold
// is set low enough to find the knee at the scaled default sizes while
// still rejecting the flat/staircase counter-examples.
const hotMedianRatio = 4

// BlockStat is one data memory block's profile.
type BlockStat struct {
	// Block is the 128 B block address.
	Block arch.BlockAddr
	// Reads counts coalesced read transactions to the block.
	Reads uint64
	// Warps counts distinct warps that read the block (across kernels).
	Warps int
	// SharePercent is the block's warp-sharing percentage: the maximum,
	// over the kernels that touch it, of (warps reading the block within
	// the kernel) / (active warps of that kernel) — the Fig. 4 metric.
	// Normalisation is per kernel because a data object is only live during
	// the kernels that use it.
	SharePercent float64
	// Object is the input data object the block belongs to ("" for
	// intermediate/output buffers).
	Object string
}

// ObjectStat aggregates a data object's profile (one Table III row
// fragment).
type ObjectStat struct {
	// Name is the data object name.
	Name string
	// SizeBytes is the allocation size.
	SizeBytes int
	// Blocks is the number of 128 B blocks the object spans.
	Blocks int
	// Reads is the total coalesced read transactions to the object.
	Reads uint64
	// PeakBlockReads is the hottest block's read count — the ranking key
	// (hot objects concentrate accesses on few blocks).
	PeakBlockReads uint64
	// SharedWarpsMax is the largest number of distinct warps sharing one of
	// the object's blocks.
	SharedWarpsMax int
	// ReadOnly marks replication-eligible objects.
	ReadOnly bool
}

// Profile is an application's access profile, folded from one traced run.
type Profile struct {
	// App is the application name.
	App string
	// TotalWarps is the number of warps launched across all kernels.
	TotalWarps int
	// ActiveWarps is the number of warps that issued at least one read.
	ActiveWarps int
	// TotalReads counts all coalesced read transactions.
	TotalReads uint64
	// TotalMemBytes is the application's allocated device memory.
	TotalMemBytes int
	// Blocks holds every block with at least one read, sorted by read
	// count ascending (the Fig. 3 x-axis order).
	Blocks []BlockStat
	// Objects holds the input data objects sorted by PeakBlockReads
	// descending (the Table III row order).
	Objects []ObjectStat
}

// blockAcc accumulates one block's reads while Collect folds the traces.
type blockAcc struct {
	reads uint64
	// warps counts distinct reading warps across kernels; kernelWarps
	// those of the kernel being folded, and lastWarp is the last reader
	// (1-based global warp index, 0 for none).
	warps       int
	kernelWarps int
	lastWarp    int
	// share is the largest per-kernel warp-sharing percentage so far.
	share float64
}

// Collect folds the application's per-kernel traces, in launch order, into
// its profile. Only loads count: the analysis follows the paper, where
// read accesses dominate.
func Collect(app *kernels.App, traces []*simt.KernelTrace) *Profile {
	p := &Profile{App: app.Name, TotalMemBytes: app.Mem.Size()}
	acc := make(map[arch.BlockAddr]*blockAcc)
	var touched []*blockAcc // blocks read by the kernel being folded
	for _, tr := range traces {
		active := 0
		for w, instrs := range tr.Warps {
			gw := p.TotalWarps + w + 1
			read := false
			for _, in := range instrs {
				if in.Kind != simt.InstrLoad {
					continue
				}
				read = true
				for _, b := range in.Blocks {
					a := acc[b]
					if a == nil {
						a = &blockAcc{}
						acc[b] = a
					}
					a.reads++
					p.TotalReads++
					if a.lastWarp != gw {
						if a.kernelWarps == 0 {
							touched = append(touched, a)
						}
						a.lastWarp = gw
						a.warps++
						a.kernelWarps++
					}
				}
			}
			if read {
				active++
			}
		}
		// Sharing is normalized per kernel: a data object is only live
		// during the kernels that use it.
		for _, a := range touched {
			if s := 100 * float64(a.kernelWarps) / float64(active); s > a.share {
				a.share = s
			}
			a.kernelWarps = 0
		}
		touched = touched[:0]
		p.TotalWarps += len(tr.Warps)
		p.ActiveWarps += active
	}

	// Object attribution: map block → owning input object.
	owner := make(map[arch.BlockAddr]string, len(acc))
	objStats := make(map[string]*ObjectStat, len(app.Objects))
	for _, o := range app.Objects {
		objStats[o.Name] = &ObjectStat{
			Name:      o.Name,
			SizeBytes: o.Size,
			Blocks:    o.Blocks(),
			ReadOnly:  o.ReadOnly,
		}
		first := o.FirstBlock()
		for b := 0; b < o.Blocks(); b++ {
			owner[first+arch.BlockAddr(b)] = o.Name
		}
	}

	p.Blocks = make([]BlockStat, 0, len(acc))
	for b, a := range acc {
		name := owner[b]
		n := a.reads
		st := BlockStat{
			Block:        b,
			Reads:        n,
			Warps:        a.warps,
			SharePercent: a.share,
			Object:       name,
		}
		p.Blocks = append(p.Blocks, st)
		if os, ok := objStats[name]; ok {
			os.Reads += n
			if n > os.PeakBlockReads {
				os.PeakBlockReads = n
			}
			if st.Warps > os.SharedWarpsMax {
				os.SharedWarpsMax = st.Warps
			}
		}
	}
	sort.Slice(p.Blocks, func(i, j int) bool {
		if p.Blocks[i].Reads != p.Blocks[j].Reads {
			return p.Blocks[i].Reads < p.Blocks[j].Reads
		}
		return p.Blocks[i].Block < p.Blocks[j].Block
	})

	p.Objects = make([]ObjectStat, 0, len(objStats))
	for _, os := range objStats {
		p.Objects = append(p.Objects, *os)
	}
	sort.Slice(p.Objects, func(i, j int) bool {
		if p.Objects[i].PeakBlockReads != p.Objects[j].PeakBlockReads {
			return p.Objects[i].PeakBlockReads > p.Objects[j].PeakBlockReads
		}
		if p.Objects[i].Reads != p.Objects[j].Reads {
			return p.Objects[i].Reads > p.Objects[j].Reads
		}
		return p.Objects[i].Name < p.Objects[j].Name
	})
	return p
}

// MaxMinRatio returns the hottest block's read count over the coldest
// accessed block's — the Fig. 3 concentration measure (4732× for C-NN in
// the paper).
func (p *Profile) MaxMinRatio() float64 {
	if len(p.Blocks) == 0 {
		return 0
	}
	lo := p.Blocks[0].Reads
	hi := p.Blocks[len(p.Blocks)-1].Reads
	if lo == 0 {
		return float64(hi)
	}
	return float64(hi) / float64(lo)
}

// medianReads returns the median read count over accessed blocks.
func (p *Profile) medianReads() uint64 {
	if len(p.Blocks) == 0 {
		return 0
	}
	return p.Blocks[len(p.Blocks)/2].Reads
}

// HotBlocks identifies hot memory blocks from the profile alone: blocks
// whose read count is ≥ hotMedianRatio × the median. This is the automated
// knee of Fig. 3.
func (p *Profile) HotBlocks() []arch.BlockAddr {
	med := p.medianReads()
	if med == 0 {
		med = 1
	}
	var out []arch.BlockAddr
	for _, b := range p.Blocks {
		if b.Reads >= hotMedianRatio*med {
			out = append(out, b.Block)
		}
	}
	return out
}

// HasHotPattern reports whether the profile shows the Fig. 3(a)–(f) knee:
// a minority of blocks is hot. The discriminating signal is the knee
// itself: the flat and staircase counter-examples produce no blocks above
// the knee threshold at all, while the hot-pattern applications put at
// most a modest fraction (re-read intermediates included) above it.
func (p *Profile) HasHotPattern() bool {
	hot := len(p.HotBlocks())
	return hot > 0 && hot*2 <= len(p.Blocks)
}

// HotAccessPercent returns the percentage of all read transactions that
// target blocks of the given (hot) objects — Table III's last column.
func (p *Profile) HotAccessPercent(hotObjects []*mem.Buffer) float64 {
	if p.TotalReads == 0 {
		return 0
	}
	names := make(map[string]bool, len(hotObjects))
	for _, o := range hotObjects {
		names[o.Name] = true
	}
	var hot uint64
	for _, o := range p.Objects {
		if names[o.Name] {
			hot += o.Reads
		}
	}
	return 100 * float64(hot) / float64(p.TotalReads)
}

// HotSizePercent returns the hot objects' footprint as a percentage of the
// application's total device memory — Table III's middle column.
func (p *Profile) HotSizePercent(hotObjects []*mem.Buffer) float64 {
	if p.TotalMemBytes == 0 {
		return 0
	}
	bytes := 0
	for _, o := range hotObjects {
		bytes += o.Size
	}
	return 100 * float64(bytes) / float64(p.TotalMemBytes)
}

// NormalizedReadSeries returns the Fig. 3 y-series: per-block read counts
// sorted ascending, normalized to the maximum. At most maxPoints values are
// returned, uniformly subsampled (the paper's plots are likewise decimated).
func (p *Profile) NormalizedReadSeries(maxPoints int) []float64 {
	if len(p.Blocks) == 0 {
		return nil
	}
	max := float64(p.Blocks[len(p.Blocks)-1].Reads)
	if max == 0 {
		max = 1
	}
	return p.series(maxPoints, func(b BlockStat) float64 { return float64(b.Reads) / max })
}

// WarpSharePercentSeries returns the Fig. 4 y-series: per-block warp-
// sharing percentages, ordered by read count ascending.
func (p *Profile) WarpSharePercentSeries(maxPoints int) []float64 {
	return p.series(maxPoints, func(b BlockStat) float64 { return b.SharePercent })
}

// series maps f over the blocks in read order, uniformly subsampled to at
// most maxPoints values. The first value is always the coldest block's and,
// from two points on, the last is the hottest's; maxPoints <= 0 gives nil.
func (p *Profile) series(maxPoints int, f func(BlockStat) float64) []float64 {
	n := len(p.Blocks)
	m := min(maxPoints, n)
	if m <= 0 {
		return nil
	}
	out := make([]float64, m)
	for i := range out {
		idx := 0
		if m > 1 {
			idx = i * (n - 1) / (m - 1)
		}
		out[i] = f(p.Blocks[idx])
	}
	return out
}
