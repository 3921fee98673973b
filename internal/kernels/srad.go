package kernels

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
	"github.com/datacentric-gpu/dcrm/internal/metrics"
	"github.com/datacentric-gpu/dcrm/internal/simt"
)

// SRADConfig sizes A-SRAD (Rodinia's speckle-reducing anisotropic
// diffusion; the paper runs ~500×450 ultrasound frames for many
// iterations).
type SRADConfig struct {
	// Width and Height of the image.
	Width, Height int
	// Iterations is the diffusion iteration count (default 6). SRAD is
	// iterative by nature; iteration is what makes faults in the
	// neighbour-index arrays compound across the image while faults in
	// individual pixels diffuse away.
	Iterations int
}

func (c SRADConfig) withDefaults() SRADConfig {
	if c.Width == 0 {
		c.Width = 96
	}
	if c.Height == 0 {
		c.Height = 96
	}
	if c.Iterations == 0 {
		c.Iterations = 6
	}
	return c
}

// NewSRAD builds A-SRAD following Rodinia's srad_v2 structure: kernel 1
// computes the four directional derivatives and the diffusion coefficient
// for every pixel; kernel 2 applies the divergence update in place; the
// pair repeats for the configured iterations. The hot data objects are the
// four read-only neighbour-index arrays i_N, i_S, i_E, i_W (Table III),
// consulted by both kernels for every pixel of every iteration.
func NewSRAD(cfg SRADConfig) (*App, error) {
	cfg = cfg.withDefaults()
	w, h := cfg.Width, cfg.Height
	if w <= 2 || h <= 2 {
		return nil, fmt.Errorf("kernels: srad: image must be larger than 3×3, got %d×%d", w, h)
	}
	if cfg.Iterations < 1 {
		return nil, fmt.Errorf("kernels: srad: iterations must be positive, got %d", cfg.Iterations)
	}
	m := mem.New()
	bufN, err := m.Alloc("i_N", h*4, true)
	if err != nil {
		return nil, err
	}
	bufS, err := m.Alloc("i_S", h*4, true)
	if err != nil {
		return nil, err
	}
	bufE, err := m.Alloc("i_E", w*4, true)
	if err != nil {
		return nil, err
	}
	bufW, err := m.Alloc("i_W", w*4, true)
	if err != nil {
		return nil, err
	}
	bufJ, err := m.Alloc("Image", w*h*4, false) // updated in place per iteration
	if err != nil {
		return nil, err
	}
	bufC, err := m.Alloc("Coeff", w*h*4, false)
	if err != nil {
		return nil, err
	}
	// Directional derivatives stored by kernel 1 for kernel 2 (Rodinia's
	// dN/dS/dW/dE arrays).
	var bufD [4]*mem.Buffer
	for i, name := range []string{"dN", "dS", "dE", "dW"} {
		bufD[i], err = m.Alloc(name, w*h*4, false)
		if err != nil {
			return nil, err
		}
	}
	// Rodinia-style clamped neighbour indices.
	for y := 0; y < h; y++ {
		n, s := y-1, y+1
		if n < 0 {
			n = 0
		}
		if s >= h {
			s = h - 1
		}
		m.WriteI32(bufN.ElemAddr(y), int32(n))
		m.WriteI32(bufS.ElemAddr(y), int32(s))
	}
	for x := 0; x < w; x++ {
		e, ww := x+1, x-1
		if e >= w {
			e = w - 1
		}
		if ww < 0 {
			ww = 0
		}
		m.WriteI32(bufE.ElemAddr(x), int32(e))
		m.WriteI32(bufW.ElemAddr(x), int32(ww))
	}
	// The image is strictly positive (SRAD operates on speckled
	// intensities).
	img := synthImage(w, h)
	for i, v := range img {
		if v < 0.05 {
			v = 0.05
		}
		img[i] = v
	}
	if err := m.WriteF32Slice(bufJ, img); err != nil {
		return nil, err
	}

	ss := &siteSet{}
	ld1N := ss.site("k1.ld.iN", bufN)
	ld1S := ss.site("k1.ld.iS", bufS)
	ld1E := ss.site("k1.ld.iE", bufE)
	ld1W := ss.site("k1.ld.iW", bufW)
	ld1J := ss.site("k1.ld.J", bufJ)
	st1C := ss.site("k1.st.coeff", nil)
	st1D := ss.site("k1.st.deriv", nil)
	ld2S := ss.site("k2.ld.iS", bufS)
	ld2E := ss.site("k2.ld.iE", bufE)
	ld2C := ss.site("k2.ld.coeff", bufC)
	ld2D := ss.site("k2.ld.deriv", bufD[0])
	ld2J := ss.site("k2.ld.J", bufJ)
	st2J := ss.site("k2.st.J", nil)

	total := w * h
	grid := arch.Dim3{X: (total + polyThreadsPerCTA - 1) / polyThreadsPerCTA}
	// The diffusion update rate and speckle scale, as float32 variables:
	// q0*q0 below must round like the kernel arithmetic.
	lambda, q0 := float32(0.5), float32(0.5)
	q0sq := q0 * q0

	// dirSites maps direction → (site, index buffer) for kernel 1.
	dir1 := [4]struct {
		site simt.Site
		buf  *mem.Buffer
		row  bool // index array indexed by row (true) or column
	}{
		{ld1N, bufN, true},
		{ld1S, bufS, true},
		{ld1E, bufE, false},
		{ld1W, bufW, false},
	}

	// Kernel 1: derivatives and diffusion coefficient.
	k1 := &simt.Kernel{
		KernelName: "srad_kernel1",
		Grid:       grid,
		Block:      arch.Dim3{X: polyThreadsPerCTA},
		Run: func(warp *simt.WarpCtx) {
			idx := warp.ScratchI32(0)
			nbr := warp.ScratchI32(1)
			c := warp.ScratchF32(0)
			v := warp.ScratchF32(1)
			grad := warp.ScratchF32(2)
			lap := warp.ScratchF32(3)
			any := false
			for lane := 0; lane < warp.NumLanes; lane++ {
				grad[lane], lap[lane] = 0, 0
				if warp.LinearThreadID(lane) < total {
					any = true
				}
			}
			if !any {
				return
			}
			for lane := 0; lane < warp.NumLanes; lane++ {
				if p := warp.LinearThreadID(lane); p < total {
					idx[lane] = int32(p)
				} else {
					idx[lane] = simt.InactiveLane
				}
			}
			warp.LoadF32(ld1J, bufJ, idx, c)
			for dir := 0; dir < 4; dir++ {
				d := dir1[dir]
				for lane := 0; lane < warp.NumLanes; lane++ {
					p := warp.LinearThreadID(lane)
					if p >= total {
						nbr[lane] = simt.InactiveLane
						continue
					}
					if d.row {
						nbr[lane] = int32(p / w)
					} else {
						nbr[lane] = int32(p % w)
					}
				}
				warp.LoadI32(d.site, d.buf, nbr, idx)
				for lane := 0; lane < warp.NumLanes; lane++ {
					p := warp.LinearThreadID(lane)
					if p >= total {
						continue
					}
					if d.row {
						nbr[lane] = idx[lane]*int32(w) + int32(p%w)
					} else {
						nbr[lane] = int32(p/w)*int32(w) + idx[lane]
					}
				}
				warp.LoadF32(ld1J, bufJ, nbr, v)
				for lane := 0; lane < warp.NumLanes; lane++ {
					p := warp.LinearThreadID(lane)
					if p >= total {
						idx[lane] = simt.InactiveLane
						continue
					}
					diff := v[lane] - c[lane]
					grad[lane] += diff * diff
					lap[lane] += diff
					v[lane] = diff
					idx[lane] = int32(p)
				}
				warp.Compute(3)
				warp.StoreF32(st1D, bufD[dir], idx, v)
			}
			// Diffusion coefficient c(q) clamped to [0,1].
			for lane := 0; lane < warp.NumLanes; lane++ {
				p := warp.LinearThreadID(lane)
				if p >= total {
					idx[lane] = simt.InactiveLane
					continue
				}
				idx[lane] = int32(p)
				cc := c[lane]
				if cc == 0 {
					cc = 1e-6
				}
				num := 0.5*grad[lane]/(cc*cc) - (lap[lane]/cc)*(lap[lane]/cc)/16
				den := 1 + lap[lane]/(4*cc)
				qsq := num / (den * den)
				coef := 1 / (1 + (qsq-q0sq)/(q0sq*(1+q0sq)))
				if coef < 0 || coef != coef { // clamp, NaN → 0
					coef = 0
				} else if coef > 1 {
					coef = 1
				}
				v[lane] = coef
			}
			warp.Compute(12)
			warp.StoreF32(st1C, bufC, idx, v)
		},
	}

	// Kernel 2: divergence update, in place (only stored derivatives and
	// coefficients are read, so the update has no intra-kernel hazards).
	k2 := &simt.Kernel{
		KernelName: "srad_kernel2",
		Grid:       grid,
		Block:      arch.Dim3{X: polyThreadsPerCTA},
		Run: func(warp *simt.WarpCtx) {
			idx := warp.ScratchI32(0)
			nbr := warp.ScratchI32(1)
			div := warp.ScratchF32(0)
			v := warp.ScratchF32(1)
			cC := warp.ScratchF32(2)
			j := warp.ScratchF32(3)
			any := false
			for lane := 0; lane < warp.NumLanes; lane++ {
				if warp.LinearThreadID(lane) < total {
					any = true
				}
			}
			if !any {
				return
			}
			for lane := 0; lane < warp.NumLanes; lane++ {
				if p := warp.LinearThreadID(lane); p < total {
					idx[lane] = int32(p)
				} else {
					idx[lane] = simt.InactiveLane
				}
			}
			warp.LoadF32(ld2C, bufC, idx, cC)
			// cN = cW = c[k]; cS and cE come from the neighbour rows/cols
			// through the hot index arrays (Rodinia's update rule).
			// div = cN·dN + cS·dS + cW·dW + cE·dE.
			warp.LoadF32(ld2D, bufD[0], idx, v) // dN
			for lane := 0; lane < warp.NumLanes; lane++ {
				div[lane] = cC[lane] * v[lane]
			}
			warp.LoadF32(ld2D, bufD[3], idx, v) // dW
			for lane := 0; lane < warp.NumLanes; lane++ {
				div[lane] += cC[lane] * v[lane]
			}
			warp.Compute(2)
			// cS via i_S.
			for lane := 0; lane < warp.NumLanes; lane++ {
				p := warp.LinearThreadID(lane)
				if p >= total {
					nbr[lane] = simt.InactiveLane
					continue
				}
				nbr[lane] = int32(p / w)
			}
			warp.LoadI32(ld2S, bufS, nbr, idx)
			for lane := 0; lane < warp.NumLanes; lane++ {
				p := warp.LinearThreadID(lane)
				if p >= total {
					continue
				}
				nbr[lane] = idx[lane]*int32(w) + int32(p%w)
			}
			warp.LoadF32(ld2C, bufC, nbr, v)
			for lane := 0; lane < warp.NumLanes; lane++ {
				j[lane] = v[lane] // stash cS
			}
			warp.LoadF32(ld2D, bufD[1], mustIdx(warp, total), v) // dS
			for lane := 0; lane < warp.NumLanes; lane++ {
				div[lane] += j[lane] * v[lane]
			}
			warp.Compute(2)
			// cE via i_E.
			for lane := 0; lane < warp.NumLanes; lane++ {
				p := warp.LinearThreadID(lane)
				if p >= total {
					nbr[lane] = simt.InactiveLane
					continue
				}
				nbr[lane] = int32(p % w)
			}
			warp.LoadI32(ld2E, bufE, nbr, idx)
			for lane := 0; lane < warp.NumLanes; lane++ {
				p := warp.LinearThreadID(lane)
				if p >= total {
					continue
				}
				nbr[lane] = int32(p/w)*int32(w) + idx[lane]
			}
			warp.LoadF32(ld2C, bufC, nbr, v)
			for lane := 0; lane < warp.NumLanes; lane++ {
				j[lane] = v[lane] // stash cE
			}
			warp.LoadF32(ld2D, bufD[2], mustIdx(warp, total), v) // dE
			for lane := 0; lane < warp.NumLanes; lane++ {
				div[lane] += j[lane] * v[lane]
			}
			warp.Compute(2)
			// J += λ/4 · div.
			warp.LoadF32(ld2J, bufJ, mustIdx(warp, total), j)
			for lane := 0; lane < warp.NumLanes; lane++ {
				if p := warp.LinearThreadID(lane); p < total {
					idx[lane] = int32(p)
					j[lane] += 0.25 * lambda * div[lane]
				} else {
					idx[lane] = simt.InactiveLane
				}
			}
			warp.Compute(2)
			warp.StoreF32(st2J, bufJ, idx, j)
		},
	}

	ks := make([]*simt.Kernel, 0, 2*cfg.Iterations)
	for it := 0; it < cfg.Iterations; it++ {
		ks = append(ks, k1, k2)
	}

	return &App{
		Name:     "A-SRAD",
		Mem:      m,
		Kernels:  ks,
		Objects:  []*mem.Buffer{bufN, bufS, bufE, bufW, bufJ}, // Table III order
		HotCount: 4,
		Sites:    ss.sites,
		Metric:   metrics.Metric{Kind: metrics.ImageNRMSE, Threshold: nrmseThreshold},
		output: func(m *mem.Memory) []float32 {
			out := m.ReadF32Slice(bufJ, total)
			for i, v := range out {
				out[i] = quantize8(v)
			}
			return out
		},
	}, nil
}

// mustIdx fills the warp's scratch slot 0 with each active lane's linear
// pixel index (the common "this pixel" operand of the SRAD kernels).
func mustIdx(warp *simt.WarpCtx, total int) []int32 {
	idx := warp.ScratchI32(0)
	for lane := 0; lane < warp.NumLanes; lane++ {
		if p := warp.LinearThreadID(lane); p < total {
			idx[lane] = int32(p)
		} else {
			idx[lane] = simt.InactiveLane
		}
	}
	return idx
}
