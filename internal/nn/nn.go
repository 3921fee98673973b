// Package nn implements the C-NN application's network: the LeNet-style
// convolutional digit classifier of the CUDA-SDK-era "CNN" benchmark the
// paper evaluates (29×29 input → 6 conv maps 13×13 → 50 conv maps 5×5 →
// 100 FC → 10 FC).
//
// The paper uses pre-trained MNIST weights, which are not available here;
// instead the weights are constructed deterministically — fixed edge/blob
// filters for layer 1, seeded pseudo-random projections for layers 2–3, and
// a ridge-regression-fitted output layer over a synthetic digit dataset
// (see data.go). The resulting classifier reaches high accuracy on the
// synthetic set and, critically for the paper's experiments, degrades into
// misclassifications when its weight objects are corrupted.
//
// Summation order is part of the contract. Every C-NN golden (the stuck-at
// outcomes, campaign verdicts, the golden output) depends on the weights bit
// for bit, and float32 addition is not associative, so each forward output
// keeps one fixed term sequence: its start value (the bias in layers 1 and
// 3, zero in layer 2), then its s += x*w terms in tap or input order — in
// layer 2, each input map's bias followed by that map's 25 taps. The kernels
// interleave only independent outputs and keep the s += x*w form, so any
// compiler fusion applies as it would to a one-output-at-a-time loop. Train
// extracts features in parallel but sums the normal equations serially in
// sample order. TestTrainedNetworkGolden, TestLayerForwardMatchesReference
// and TestNormalEquationsMatchReference pin this.
package nn

import (
	"fmt"
	"math"
)

// Network geometry (matches the benchmark's data-object sizes in Table III).
const (
	// ImageSide and ImagePixels describe the 29×29 input.
	ImageSide   = 29
	ImagePixels = ImageSide * ImageSide
	// Layer1Maps×Layer1Side² neurons come from 5×5 stride-2 convolutions.
	Layer1Maps   = 6
	Layer1Side   = 13
	KernelSide   = 5
	KernelTaps   = KernelSide * KernelSide
	Layer1Stride = 2
	// Layer1Weights = maps × (bias + 25 taps).
	Layer1Weights = Layer1Maps * (1 + KernelTaps) // 156
	Layer1Neurons = Layer1Maps * Layer1Side * Layer1Side

	// Layer 2: 50 maps of 5×5 from stride-2 5×5 convolutions over the 6
	// layer-1 maps; 26 weights (bias + 25 taps) per (out, in) map pair.
	Layer2Maps    = 50
	Layer2Side    = 5
	Layer2Weights = Layer2Maps * Layer1Maps * (1 + KernelTaps) // 7800
	Layer2Neurons = Layer2Maps * Layer2Side * Layer2Side       // 1250

	// Layer 3: fully connected, 100 neurons.
	Layer3Units   = 100
	Layer3Weights = Layer3Units * (Layer2Neurons + 1) // 125100

	// Layer 4: fully connected, 10 class outputs.
	Classes       = 10
	Layer4Weights = Classes * (Layer3Units + 1) // 1010
)

// Network holds the four weight objects — the application's input data
// objects in Table III. Layer1W and Layer2W are the hot objects.
type Network struct {
	Layer1W []float32
	Layer2W []float32
	Layer3W []float32
	Layer4W []float32
}

// activation is the benchmark's scaled tanh.
func activation(x float32) float32 {
	return float32(1.7159 * math.Tanh(0.66666667*float64(x)))
}

// Validate reports whether the weight slices have the expected sizes.
func (n *Network) Validate() error {
	if len(n.Layer1W) != Layer1Weights {
		return fmt.Errorf("nn: layer1 weights = %d, want %d", len(n.Layer1W), Layer1Weights)
	}
	if len(n.Layer2W) != Layer2Weights {
		return fmt.Errorf("nn: layer2 weights = %d, want %d", len(n.Layer2W), Layer2Weights)
	}
	if len(n.Layer3W) != Layer3Weights {
		return fmt.Errorf("nn: layer3 weights = %d, want %d", len(n.Layer3W), Layer3Weights)
	}
	if len(n.Layer4W) != Layer4Weights {
		return fmt.Errorf("nn: layer4 weights = %d, want %d", len(n.Layer4W), Layer4Weights)
	}
	return nil
}

// Layer1Forward computes the first conv layer into out (Layer1Neurons).
// Four pixels of a row are summed together, sharing each weight load;
// neighbouring pixels' windows start Layer1Stride (2) inputs apart.
func (n *Network) Layer1Forward(img []float32, out []float32) {
	for m := 0; m < Layer1Maps; m++ {
		w := n.Layer1W[m*(1+KernelTaps) : (m+1)*(1+KernelTaps)]
		bias, taps := w[0], w[1:]
		for py := 0; py < Layer1Side; py++ {
			dst := out[(m*Layer1Side+py)*Layer1Side : (m*Layer1Side+py+1)*Layer1Side]
			px := 0
			for ; px+4 <= Layer1Side; px += 4 {
				win := img[py*Layer1Stride*ImageSide+px*Layer1Stride:]
				s0, s1, s2, s3 := bias, bias, bias, bias
				for ky := 0; ky < KernelSide; ky++ {
					x := (*[KernelSide + 3*Layer1Stride]float32)(win[ky*ImageSide:])
					t := (*[KernelSide]float32)(taps[ky*KernelSide:])
					for kx := 0; kx < KernelSide; kx++ {
						wi := t[kx]
						s0 += x[kx] * wi
						s1 += x[kx+2] * wi
						s2 += x[kx+4] * wi
						s3 += x[kx+6] * wi
					}
				}
				dst[px] = activation(s0)
				dst[px+1] = activation(s1)
				dst[px+2] = activation(s2)
				dst[px+3] = activation(s3)
			}
			for ; px < Layer1Side; px++ {
				win := img[py*Layer1Stride*ImageSide+px*Layer1Stride:]
				sum := bias
				for ky := 0; ky < KernelSide; ky++ {
					x := (*[KernelSide]float32)(win[ky*ImageSide:])
					t := (*[KernelSide]float32)(taps[ky*KernelSide:])
					for kx := 0; kx < KernelSide; kx++ {
						sum += x[kx] * t[kx]
					}
				}
				dst[px] = activation(sum)
			}
		}
	}
}

// Layer2Forward computes the second conv layer: in is Layer1Neurons, out is
// Layer2Neurons. The five pixels of a row are summed together, sharing each
// weight load; neighbouring pixels' windows start Layer1Stride (2) inputs
// apart.
func (n *Network) Layer2Forward(in []float32, out []float32) {
	const mapWeights = Layer1Maps * (1 + KernelTaps)
	for o := 0; o < Layer2Maps; o++ {
		wo := n.Layer2W[o*mapWeights : (o+1)*mapWeights]
		for py := 0; py < Layer2Side; py++ {
			var s0, s1, s2, s3, s4 float32
			for m := 0; m < Layer1Maps; m++ {
				w := wo[m*(1+KernelTaps) : (m+1)*(1+KernelTaps)]
				// Per-(out,in) bias contribution, then the map's taps.
				b := w[0]
				s0 += b
				s1 += b
				s2 += b
				s3 += b
				s4 += b
				taps := w[1:]
				plane := in[m*Layer1Side*Layer1Side+py*Layer1Stride*Layer1Side:]
				for ky := 0; ky < KernelSide; ky++ {
					x := (*[Layer1Side]float32)(plane[ky*Layer1Side:])
					t := (*[KernelSide]float32)(taps[ky*KernelSide:])
					for kx := 0; kx < KernelSide; kx++ {
						wi := t[kx]
						s0 += x[kx] * wi
						s1 += x[kx+2] * wi
						s2 += x[kx+4] * wi
						s3 += x[kx+6] * wi
						s4 += x[kx+8] * wi
					}
				}
			}
			dst := out[(o*Layer2Side+py)*Layer2Side : (o*Layer2Side+py+1)*Layer2Side]
			dst[0] = activation(s0)
			dst[1] = activation(s1)
			dst[2] = activation(s2)
			dst[3] = activation(s3)
			dst[4] = activation(s4)
		}
	}
}

// Layer3Forward computes the first FC layer: in is Layer2Neurons, out is
// Layer3Units. Four units (Layer3Units is a multiple of four) are summed
// together, sharing each input load.
func (n *Network) Layer3Forward(in []float32, out []float32) {
	x := (*[Layer2Neurons]float32)(in)
	const stride = Layer2Neurons + 1
	for u := 0; u < Layer3Units; u += 4 {
		w := n.Layer3W[u*stride : (u+4)*stride]
		w0 := (*[Layer2Neurons]float32)(w[1:stride])
		w1 := (*[Layer2Neurons]float32)(w[stride+1 : 2*stride])
		w2 := (*[Layer2Neurons]float32)(w[2*stride+1 : 3*stride])
		w3 := (*[Layer2Neurons]float32)(w[3*stride+1 : 4*stride])
		s0, s1, s2, s3 := w[0], w[stride], w[2*stride], w[3*stride]
		for i, xi := range x {
			s0 += xi * w0[i]
			s1 += xi * w1[i]
			s2 += xi * w2[i]
			s3 += xi * w3[i]
		}
		o := out[u : u+4]
		o[0] = activation(s0)
		o[1] = activation(s1)
		o[2] = activation(s2)
		o[3] = activation(s3)
	}
}

// Layer4Forward computes the output layer: in is Layer3Units, out is
// Classes (linear scores).
func (n *Network) Layer4Forward(in []float32, out []float32) {
	for c := 0; c < Classes; c++ {
		wb := c * (Layer3Units + 1)
		sum := n.Layer4W[wb]
		for i := 0; i < Layer3Units; i++ {
			sum += in[i] * n.Layer4W[wb+1+i]
		}
		out[c] = sum
	}
}

// Features runs layers 1–3, returning the 100-dimensional feature vector.
func (n *Network) Features(img []float32) []float32 {
	l1 := make([]float32, Layer1Neurons)
	l2 := make([]float32, Layer2Neurons)
	l3 := make([]float32, Layer3Units)
	n.Layer1Forward(img, l1)
	n.Layer2Forward(l1, l2)
	n.Layer3Forward(l2, l3)
	return l3
}

// Infer classifies one image, returning the argmax class.
func (n *Network) Infer(img []float32) int {
	l3 := n.Features(img)
	scores := make([]float32, Classes)
	n.Layer4Forward(l3, scores)
	best := 0
	for c := 1; c < Classes; c++ {
		if scores[c] > scores[best] {
			best = c
		}
	}
	return best
}

// Accuracy returns the fraction of dataset images classified correctly.
func (n *Network) Accuracy(ds Dataset) float64 {
	if len(ds.Images) == 0 {
		return 0
	}
	ok := 0
	for i, img := range ds.Images {
		if n.Infer(img) == ds.Labels[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(ds.Images))
}
