// Package profile implements the paper's offline access-pattern analysis
// (Section III-B): per-block coalesced read counts (Fig. 3), warp-sharing
// percentages (Fig. 4), data-object attribution and ranking (Table III),
// and hot-block identification. Profiling is a single instrumented
// functional run, exactly as the paper collects it once offline.
package profile

import (
	"fmt"
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

// Profile is the result of one instrumented run.
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

// kernelRange records one kernel's global warp-ID span.
type kernelRange struct {
	base, end int
	active    int
}

// collector implements simt.Observer.
type collector struct {
	warpBase int
	reads    map[arch.BlockAddr]uint64
	warps    map[arch.BlockAddr]map[int]struct{}
	active   map[int]struct{}
	total    uint64
	ranges   []kernelRange
}

func newCollector() *collector {
	return &collector{
		reads:  make(map[arch.BlockAddr]uint64),
		warps:  make(map[arch.BlockAddr]map[int]struct{}),
		active: make(map[int]struct{}),
	}
}

// Observe implements simt.Observer.
func (c *collector) Observe(tx simt.Transaction) {
	if tx.Write {
		return // the analysis follows the paper: RD accesses dominate
	}
	gw := c.warpBase + tx.WarpID
	c.reads[tx.Block]++
	c.total++
	ws, ok := c.warps[tx.Block]
	if !ok {
		ws = make(map[int]struct{}, 4)
		c.warps[tx.Block] = ws
	}
	ws[gw] = struct{}{}
	c.active[gw] = struct{}{}
}

// Collect profiles the application with one instrumented run on a
// copy-on-write fork of its golden memory image.
func Collect(app *kernels.App) (*Profile, error) {
	c := newCollector()
	m := app.Mem.Fork()
	d := &simt.Driver{Mem: m, Observer: c}
	totalWarps := 0
	for _, k := range app.Kernels {
		c.warpBase = totalWarps
		if _, err := d.Run(k); err != nil {
			return nil, fmt.Errorf("profile: %s: %w", app.Name, err)
		}
		totalWarps += k.TotalWarps()
		c.ranges = append(c.ranges, kernelRange{base: c.warpBase, end: totalWarps})
	}
	for gw := range c.active {
		for i := range c.ranges {
			if gw >= c.ranges[i].base && gw < c.ranges[i].end {
				c.ranges[i].active++
				break
			}
		}
	}

	p := &Profile{
		App:           app.Name,
		TotalWarps:    totalWarps,
		ActiveWarps:   len(c.active),
		TotalReads:    c.total,
		TotalMemBytes: app.Mem.Size(),
	}

	// Object attribution: map block → owning input object.
	owner := make(map[arch.BlockAddr]string, len(c.reads))
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

	p.Blocks = make([]BlockStat, 0, len(c.reads))
	for b, n := range c.reads {
		name := owner[b]
		st := BlockStat{
			Block:        b,
			Reads:        n,
			Warps:        len(c.warps[b]),
			SharePercent: c.sharePercent(b),
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
	return p, nil
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

// RestBlocks returns the accessed blocks that are not hot.
func (p *Profile) RestBlocks() []arch.BlockAddr {
	hot := make(map[arch.BlockAddr]bool)
	for _, b := range p.HotBlocks() {
		hot[b] = true
	}
	var out []arch.BlockAddr
	for _, b := range p.Blocks {
		if !hot[b.Block] {
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

// ObjectBlocks returns the blocks spanned by the named objects.
func ObjectBlocks(objs []*mem.Buffer) []arch.BlockAddr {
	var out []arch.BlockAddr
	for _, o := range objs {
		first := o.FirstBlock()
		for b := 0; b < o.Blocks(); b++ {
			out = append(out, first+arch.BlockAddr(b))
		}
	}
	return out
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

// sharePercent computes a block's per-kernel warp-sharing maximum.
func (c *collector) sharePercent(b arch.BlockAddr) float64 {
	ws := c.warps[b]
	if len(ws) == 0 {
		return 0
	}
	best := 0.0
	for _, r := range c.ranges {
		if r.active == 0 {
			continue
		}
		n := 0
		for gw := range ws {
			if gw >= r.base && gw < r.end {
				n++
			}
		}
		if s := 100 * float64(n) / float64(r.active); s > best {
			best = s
		}
	}
	return best
}
