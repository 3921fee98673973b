package kernels

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
	"github.com/datacentric-gpu/dcrm/internal/metrics"
	"github.com/datacentric-gpu/dcrm/internal/simt"
)

// GESUMMVConfig sizes P-GESUMMV (paper: N = 4096).
type GESUMMVConfig struct {
	N int
}

func (c GESUMMVConfig) withDefaults() GESUMMVConfig {
	if c.N == 0 {
		c.N = 192
	}
	return c
}

// NewGESUMMV builds P-GESUMMV: y = α·A·x + β·B·x. One thread per row: both
// matrices are read row-strided (uncoalesced) while x is broadcast — which
// is why x is the hot data object (Table III).
func NewGESUMMV(cfg GESUMMVConfig) (*App, error) {
	cfg = cfg.withDefaults()
	n := cfg.N
	if n <= 0 {
		return nil, fmt.Errorf("kernels: gesummv: size must be positive, got %d", n)
	}
	m := mem.New()
	bufX, err := m.Alloc("x", n*4, true)
	if err != nil {
		return nil, err
	}
	bufA, err := m.Alloc("A", n*n*4, true)
	if err != nil {
		return nil, err
	}
	bufB, err := m.Alloc("B", n*n*4, true)
	if err != nil {
		return nil, err
	}
	bufY, err := m.Alloc("y", n*4, false)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		m.WriteF32(bufX.ElemAddr(i), float32(i%19+1)/19)
		for j := 0; j < n; j++ {
			m.WriteF32(bufA.ElemAddr(i*n+j), float32((i*j+1)%n)/float32(n))
			m.WriteF32(bufB.ElemAddr(i*n+j), float32((i*(j+3))%n)/float32(n))
		}
	}

	ss := &siteSet{}
	ldA := ss.site("k1.ld.A", bufA)
	ldB := ss.site("k1.ld.B", bufB)
	ldX := ss.site("k1.ld.x", bufX)
	stY := ss.site("k1.st.y", nil)
	alpha, beta := float32(1.5), float32(2.5) // the scalar coefficients α and β

	k := &simt.Kernel{
		KernelName: "gesummv_kernel1",
		Grid:       arch.Dim3{X: (n + polyThreadsPerCTA - 1) / polyThreadsPerCTA},
		Block:      arch.Dim3{X: polyThreadsPerCTA},
		Run: func(w *simt.WarpCtx) {
			idx := w.ScratchI32(0)
			va := w.ScratchF32(0)
			vb := w.ScratchF32(1)
			acc := w.ScratchF32(2)
			tmp := w.ScratchF32(3)
			any := false
			for lane := 0; lane < w.NumLanes; lane++ {
				acc[lane], tmp[lane] = 0, 0
				if w.LinearThreadID(lane) < n {
					any = true
				}
			}
			if !any {
				return
			}
			for j := 0; j < n; j++ {
				for lane := 0; lane < w.NumLanes; lane++ {
					if i := w.LinearThreadID(lane); i < n {
						idx[lane] = int32(i*n + j)
					} else {
						idx[lane] = simt.InactiveLane
					}
				}
				w.LoadF32(ldA, bufA, idx, va)
				w.LoadF32(ldB, bufB, idx, vb)
				xv := w.LoadF32Broadcast(ldX, bufX, int32(j))
				for lane := 0; lane < w.NumLanes; lane++ {
					tmp[lane] += va[lane] * xv
					acc[lane] += vb[lane] * xv
				}
				w.Compute(2)
			}
			for lane := 0; lane < w.NumLanes; lane++ {
				acc[lane] = alpha*tmp[lane] + beta*acc[lane]
				if i := w.LinearThreadID(lane); i < n {
					idx[lane] = int32(i)
				} else {
					idx[lane] = simt.InactiveLane
				}
			}
			w.Compute(2)
			w.StoreF32(stY, bufY, idx, acc)
		},
	}

	return &App{
		Name:     "P-GESUMMV",
		Mem:      m,
		Kernels:  []*simt.Kernel{k},
		Objects:  []*mem.Buffer{bufX, bufA, bufB}, // Table III order: x, A, B
		HotCount: 1,
		Sites:    ss.sites,
		Metric:   metrics.Metric{Kind: metrics.VectorDeviation, Threshold: polyVectorThreshold},
		output: func(m *mem.Memory) []float32 {
			return m.ReadF32Slice(bufY, n)
		},
	}, nil
}
