package kernels

import (
	"fmt"
	"math"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
	"github.com/datacentric-gpu/dcrm/internal/metrics"
	"github.com/datacentric-gpu/dcrm/internal/simt"
)

// BlackScholesConfig sizes C-BlackScholes (the CUDA SDK sample evaluates
// millions of options; the scaled default keeps the flat access profile).
type BlackScholesConfig struct {
	// Options is the number of option contracts priced.
	Options int
}

func (c BlackScholesConfig) withDefaults() BlackScholesConfig {
	if c.Options == 0 {
		c.Options = 4096
	}
	return c
}

// cnd is the cumulative normal distribution via the Abramowitz–Stegun
// polynomial, as in the CUDA SDK sample.
func cnd(d float64) float64 {
	const (
		a1 = 0.31938153
		a2 = -0.356563782
		a3 = 1.781477937
		a4 = -1.821255978
		a5 = 1.330274429
	)
	l := math.Abs(d)
	k := 1.0 / (1.0 + 0.2316419*l)
	w := 1.0 - 1.0/math.Sqrt(2*math.Pi)*math.Exp(-l*l/2)*
		(a1*k+a2*k*k+a3*k*k*k+a4*k*k*k*k+a5*k*k*k*k*k)
	if d < 0 {
		return 1.0 - w
	}
	return w
}

// NewBlackScholes builds C-BlackScholes, the Fig. 3(g) counter-example:
// every thread reads each of its three inputs exactly once with perfectly
// coalesced accesses, so every data memory block has the same access count
// — a flat profile with no hot knee.
func NewBlackScholes(cfg BlackScholesConfig) (*App, error) {
	cfg = cfg.withDefaults()
	n := cfg.Options
	if n <= 0 {
		return nil, fmt.Errorf("kernels: blackscholes: options must be positive, got %d", n)
	}
	m := mem.New()
	bufS, err := m.Alloc("StockPrice", n*4, true)
	if err != nil {
		return nil, err
	}
	bufX, err := m.Alloc("OptionStrike", n*4, true)
	if err != nil {
		return nil, err
	}
	bufT, err := m.Alloc("OptionYears", n*4, true)
	if err != nil {
		return nil, err
	}
	bufCall, err := m.Alloc("CallResult", n*4, false)
	if err != nil {
		return nil, err
	}
	bufPut, err := m.Alloc("PutResult", n*4, false)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		m.WriteF32(bufS.ElemAddr(i), 5+float32(i%100))          // 5..104
		m.WriteF32(bufX.ElemAddr(i), 1+float32((i*7)%100))      // 1..100
		m.WriteF32(bufT.ElemAddr(i), 0.25+float32(i%40)*0.0975) // 0.25..4
	}

	ss := &siteSet{}
	ldS := ss.site("k1.ld.S", bufS)
	ldX := ss.site("k1.ld.X", bufX)
	ldT := ss.site("k1.ld.T", bufT)
	stC := ss.site("k1.st.call", nil)
	stP := ss.site("k1.st.put", nil)
	// The risk-free rate and volatility, as float64 variables: Go would
	// evaluate a constant expression such as r+0.5*v*v exactly.
	r, v := 0.02, 0.30

	k := &simt.Kernel{
		KernelName: "blackscholes_kernel1",
		Grid:       arch.Dim3{X: (n + polyThreadsPerCTA - 1) / polyThreadsPerCTA},
		Block:      arch.Dim3{X: polyThreadsPerCTA},
		Run: func(w *simt.WarpCtx) {
			idx := w.ScratchI32(0)
			s := w.ScratchF32(0)
			x := w.ScratchF32(1)
			tt := w.ScratchF32(2)
			out := w.ScratchF32(3)
			any := false
			for lane := 0; lane < w.NumLanes; lane++ {
				if i := w.LinearThreadID(lane); i < n {
					idx[lane] = int32(i)
					any = true
				} else {
					idx[lane] = simt.InactiveLane
				}
			}
			if !any {
				return
			}
			w.LoadF32(ldS, bufS, idx, s)
			w.LoadF32(ldX, bufX, idx, x)
			w.LoadF32(ldT, bufT, idx, tt)
			// Call values.
			for lane := 0; lane < w.NumLanes; lane++ {
				if idx[lane] == simt.InactiveLane {
					continue
				}
				sp, xp, tp := float64(s[lane]), float64(x[lane]), float64(tt[lane])
				sqrtT := math.Sqrt(tp)
				d1 := (math.Log(sp/xp) + (r+0.5*v*v)*tp) / (v * sqrtT)
				d2 := d1 - v*sqrtT
				expRT := math.Exp(-r * tp)
				out[lane] = float32(sp*cnd(d1) - xp*expRT*cnd(d2))
			}
			w.Compute(40)
			w.StoreF32(stC, bufCall, idx, out)
			// Put values via put-call parity.
			for lane := 0; lane < w.NumLanes; lane++ {
				if idx[lane] == simt.InactiveLane {
					continue
				}
				sp, xp, tp := float64(s[lane]), float64(x[lane]), float64(tt[lane])
				sqrtT := math.Sqrt(tp)
				d1 := (math.Log(sp/xp) + (r+0.5*v*v)*tp) / (v * sqrtT)
				d2 := d1 - v*sqrtT
				expRT := math.Exp(-r * tp)
				out[lane] = float32(xp*expRT*(1-cnd(d2)) - sp*(1-cnd(d1)))
			}
			w.Compute(40)
			w.StoreF32(stP, bufPut, idx, out)
		},
	}

	return &App{
		Name:     "C-BlackScholes",
		Mem:      m,
		Kernels:  []*simt.Kernel{k},
		Objects:  []*mem.Buffer{bufS, bufX, bufT},
		HotCount: 0, // flat profile: no hot objects
		Sites:    ss.sites,
		Metric:   metrics.Metric{Kind: metrics.VectorDeviation, Threshold: polyVectorThreshold},
		output: func(m *mem.Memory) []float32 {
			out := m.ReadF32Slice(bufCall, n)
			return append(out, m.ReadF32Slice(bufPut, n)...)
		},
	}, nil
}
