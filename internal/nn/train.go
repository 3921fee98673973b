package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// TrainConfig configures the deterministic network construction.
type TrainConfig struct {
	// TrainSamples is the synthetic training-set size for the output-layer
	// fit (default 600).
	TrainSamples int
	// Seed drives every random component (default 1).
	Seed int64
	// Ridge is the regularisation strength of the output-layer fit
	// (default 1.0).
	Ridge float64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.TrainSamples == 0 {
		c.TrainSamples = 600
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Ridge == 0 {
		c.Ridge = 1.0
	}
	return c
}

// layer1Filters are six fixed 5×5 feature detectors: horizontal and
// vertical edges, the two diagonals, a centre-surround blob, and a blur.
func layer1Filters() []float32 {
	w := make([]float32, Layer1Weights)
	set := func(m, tap int, v float32) { w[m*(1+KernelTaps)+1+tap] = v }
	for i := 0; i < KernelTaps; i++ {
		y, x := i/KernelSide, i%KernelSide
		// Map 0: horizontal edge (top minus bottom).
		switch {
		case y < 2:
			set(0, i, 0.2)
		case y > 2:
			set(0, i, -0.2)
		}
		// Map 1: vertical edge.
		switch {
		case x < 2:
			set(1, i, 0.2)
		case x > 2:
			set(1, i, -0.2)
		}
		// Map 2: main diagonal.
		switch {
		case x == y:
			set(2, i, 0.3)
		case x == y+1 || y == x+1:
			set(2, i, 0.1)
		default:
			set(2, i, -0.1)
		}
		// Map 3: anti-diagonal.
		switch {
		case x+y == KernelSide-1:
			set(3, i, 0.3)
		case x+y == KernelSide || x+y == KernelSide-2:
			set(3, i, 0.1)
		default:
			set(3, i, -0.1)
		}
		// Map 4: centre-surround.
		if x >= 1 && x <= 3 && y >= 1 && y <= 3 {
			set(4, i, 0.3)
		} else {
			set(4, i, -0.15)
		}
		// Map 5: blur.
		set(5, i, 0.08)
	}
	return w
}

// randomProjection fills weights with ±1/√fanIn values from the rng,
// zeroing the bias positions (strideed layout: one bias then fanIn taps).
func randomProjection(rng *rand.Rand, units, fanIn int) []float32 {
	w := make([]float32, units*(fanIn+1))
	scale := float32(1.0 / math.Sqrt(float64(fanIn)))
	for u := 0; u < units; u++ {
		base := u * (fanIn + 1)
		for i := 1; i <= fanIn; i++ {
			if rng.Intn(2) == 0 {
				w[base+i] = scale
			} else {
				w[base+i] = -scale
			}
		}
	}
	return w
}

// layer2Projection fills the (out, in, 26) conv weights with seeded ±scale
// values, bias zero.
func layer2Projection(rng *rand.Rand) []float32 {
	w := make([]float32, Layer2Weights)
	scale := float32(1.0 / math.Sqrt(float64(Layer1Maps*KernelTaps)))
	for o := 0; o < Layer2Maps; o++ {
		for m := 0; m < Layer1Maps; m++ {
			base := (o*Layer1Maps + m) * (1 + KernelTaps)
			for i := 1; i <= KernelTaps; i++ {
				if rng.Intn(2) == 0 {
					w[base+i] = scale
				} else {
					w[base+i] = -scale
				}
			}
		}
	}
	return w
}

// Train constructs the network: fixed layer-1 filters, seeded projections
// for layers 2–3, and a ridge-regression fit of the 10-way output layer on
// a synthetic training set.
func Train(cfg TrainConfig) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.TrainSamples < Classes {
		return nil, fmt.Errorf("nn: need at least %d training samples, got %d", Classes, cfg.TrainSamples)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Network{
		Layer1W: layer1Filters(),
		Layer2W: layer2Projection(rng),
		Layer3W: randomProjection(rng, Layer3Units, Layer2Neurons),
		Layer4W: make([]float32, Layer4Weights),
	}

	// Ridge fit of the output layer: solve (XᵀX + λI)·W = XᵀY.
	dim := Layer3Units + 1 // bias feature
	a, b := n.normalEquations(GenerateDataset(cfg.TrainSamples, cfg.Seed+1))
	for i := 0; i < dim; i++ {
		a[i*dim+i] += cfg.Ridge
	}
	w, err := solveMulti(a, b, dim, Classes)
	if err != nil {
		return nil, fmt.Errorf("nn: output-layer fit: %w", err)
	}
	// Repack: class c weights = [bias, w1..w100].
	for c := 0; c < Classes; c++ {
		for i := 0; i < dim; i++ {
			n.Layer4W[c*dim+i] = float32(w[i*Classes+c])
		}
	}
	return n, nil
}

// normalEquations returns A = XᵀX (dim×dim) and B = XᵀY (dim×Classes) of
// the output-layer fit over ds, where a row of X is [1, Features(image)] and
// Y holds ±1 class indicators. Features are extracted in parallel, but the
// sums run serially in sample order. Only A's upper triangle is summed:
// x_i·x_j equals x_j·x_i exactly, so mirroring it reproduces the full sum.
func (n *Network) normalEquations(ds Dataset) (a, b []float64) {
	const dim = Layer3Units + 1
	a = make([]float64, dim*dim)
	b = make([]float64, dim*Classes)
	x := make([]float64, dim)
	for s, f := range n.batchFeatures(ds.Images) {
		x[0] = 1
		for i, v := range f {
			x[i+1] = float64(v)
		}
		label := ds.Labels[s]
		for i, xi := range x {
			row := a[i*dim : (i+1)*dim]
			for j := i; j < dim; j++ {
				row[j] += xi * x[j]
			}
			for cls := 0; cls < Classes; cls++ {
				y := -1.0
				if cls == label {
					y = 1.0
				}
				b[i*Classes+cls] += xi * y
			}
		}
	}
	for i := 0; i < dim; i++ {
		for j := i + 1; j < dim; j++ {
			a[j*dim+i] = a[i*dim+j]
		}
	}
	return a, b
}

// batchFeatures runs Features over images on GOMAXPROCS goroutines. Each
// sample's vector lands at its own index, so the result does not depend on
// the width.
func (n *Network) batchFeatures(images [][]float32) [][]float32 {
	feats := make([][]float32, len(images))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := w; s < len(images); s += workers {
				feats[s] = n.Features(images[s])
			}
		}()
	}
	wg.Wait()
	return feats
}

// solveMulti solves A·W = B for W (dim×cols) via Gaussian elimination with
// partial pivoting; A is dim×dim and consumed.
func solveMulti(a, b []float64, dim, cols int) ([]float64, error) {
	for p := 0; p < dim; p++ {
		// Pivot.
		best := p
		for r := p + 1; r < dim; r++ {
			if math.Abs(a[r*dim+p]) > math.Abs(a[best*dim+p]) {
				best = r
			}
		}
		if math.Abs(a[best*dim+p]) < 1e-12 {
			return nil, fmt.Errorf("nn: singular system at pivot %d", p)
		}
		if best != p {
			for j := 0; j < dim; j++ {
				a[p*dim+j], a[best*dim+j] = a[best*dim+j], a[p*dim+j]
			}
			for j := 0; j < cols; j++ {
				b[p*cols+j], b[best*cols+j] = b[best*cols+j], b[p*cols+j]
			}
		}
		inv := 1 / a[p*dim+p]
		for r := 0; r < dim; r++ {
			if r == p {
				continue
			}
			f := a[r*dim+p] * inv
			if f == 0 {
				continue
			}
			for j := p; j < dim; j++ {
				a[r*dim+j] -= f * a[p*dim+j]
			}
			for j := 0; j < cols; j++ {
				b[r*cols+j] -= f * b[p*cols+j]
			}
		}
	}
	w := make([]float64, dim*cols)
	for i := 0; i < dim; i++ {
		inv := 1 / a[i*dim+i]
		for j := 0; j < cols; j++ {
			w[i*cols+j] = b[i*cols+j] * inv
		}
	}
	return w, nil
}
