package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// trained caches one network across tests (construction costs about 0.1 s,
// over a second under -race).
var (
	trainedOnce sync.Once
	trainedNet  *Network
	trainedErr  error
)

func trained(t *testing.T) *Network {
	t.Helper()
	trainedOnce.Do(func() {
		trainedNet, trainedErr = Train(TrainConfig{})
	})
	if trainedErr != nil {
		t.Fatalf("Train: %v", trainedErr)
	}
	return trainedNet
}

func TestWeightObjectSizesMatchTableIII(t *testing.T) {
	n := trained(t)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// The hot objects (Layer1+Layer2 weights) must be a small fraction of
	// the total weight footprint, as in Table III.
	hot := Layer1Weights + Layer2Weights
	total := hot + Layer3Weights + Layer4Weights
	if frac := float64(hot) / float64(total); frac > 0.07 {
		t.Errorf("hot weight fraction = %.3f of weights, want small", frac)
	}
	if Layer1Weights != 156 || Layer2Weights != 7800 {
		t.Errorf("weights = %d/%d, want 156/7800", Layer1Weights, Layer2Weights)
	}
}

func TestDatasetDeterministic(t *testing.T) {
	a := GenerateDataset(50, 7)
	b := GenerateDataset(50, 7)
	for i := range a.Images {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels differ across same-seed generations")
		}
		for p := range a.Images[i] {
			if a.Images[i][p] != b.Images[i][p] {
				t.Fatal("pixels differ across same-seed generations")
			}
		}
	}
	c := GenerateDataset(50, 8)
	same := true
	for p := range a.Images[0] {
		if a.Images[0][p] != c.Images[0][p] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
}

func TestDatasetShapes(t *testing.T) {
	ds := GenerateDataset(25, 1)
	if len(ds.Images) != 25 || len(ds.Labels) != 25 {
		t.Fatalf("dataset size %d/%d, want 25", len(ds.Images), len(ds.Labels))
	}
	for i, img := range ds.Images {
		if len(img) != ImagePixels {
			t.Fatalf("image %d has %d pixels", i, len(img))
		}
		if ds.Labels[i] != i%Classes {
			t.Fatalf("label %d = %d, want %d", i, ds.Labels[i], i%Classes)
		}
	}
	flat := ds.Flatten()
	if len(flat) != 25*ImagePixels {
		t.Fatalf("flatten length %d", len(flat))
	}
	if flat[ImagePixels] != ds.Images[1][0] {
		t.Error("flatten layout wrong")
	}
}

func TestRenderDigitsDistinct(t *testing.T) {
	seen := map[string]int{}
	for c := 0; c < Classes; c++ {
		img := RenderDigit(c, 0, 0)
		key := ""
		for _, v := range img {
			if v > 0.5 {
				key += "1"
			} else {
				key += "0"
			}
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("digits %d and %d render identically", prev, c)
		}
		seen[key] = c
	}
}

func TestTrainedAccuracy(t *testing.T) {
	n := trained(t)
	test := GenerateDataset(200, 99) // unseen seed
	acc := n.Accuracy(test)
	if acc < 0.9 {
		t.Errorf("clean accuracy = %.3f, want ≥0.90", acc)
	}
	t.Logf("clean test accuracy: %.3f", acc)
}

func TestWeightCorruptionCausesMisclassification(t *testing.T) {
	n := trained(t)
	test := GenerateDataset(100, 55)
	clean := n.Accuracy(test)

	// Corrupt a handful of layer-1 weights the way a multi-bit stuck-at
	// fault in a hot memory block would (large exponent-bit flips).
	corrupted := &Network{
		Layer1W: append([]float32(nil), n.Layer1W...),
		Layer2W: n.Layer2W,
		Layer3W: n.Layer3W,
		Layer4W: n.Layer4W,
	}
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 8; k++ {
		corrupted.Layer1W[rng.Intn(Layer1Weights)] *= 1e8
	}
	bad := corrupted.Accuracy(test)
	if bad >= clean {
		t.Errorf("corrupted accuracy %.3f not below clean %.3f", bad, clean)
	}
	t.Logf("accuracy clean %.3f → corrupted %.3f", clean, bad)
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(TrainConfig{TrainSamples: 5}); err == nil {
		t.Error("too-small training set accepted")
	}
}

func TestTrainDeterministic(t *testing.T) {
	a, err := Train(TrainConfig{TrainSamples: 50, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(TrainConfig{TrainSamples: 50, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ha, hb := weightHash(a), weightHash(b); ha != hb {
		t.Fatalf("same-seed training produced different weights: %s vs %s", ha, hb)
	}
}

func TestSolveMulti(t *testing.T) {
	// 2x2 system with two right-hand sides: A = [[2,1],[1,3]],
	// B columns (5,10) and (1,0).
	a := []float64{2, 1, 1, 3}
	b := []float64{5, 1, 10, 0}
	w, err := solveMulti(a, b, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Solutions: x = A⁻¹b. det = 5. For b1=(5,10): x = (1, 3). For b2=(1,0):
	// x = (0.6, -0.2).
	want := []float64{1, 0.6, 3, -0.2}
	for i := range want {
		if diff := w[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("w[%d] = %v, want %v", i, w[i], want[i])
		}
	}
}

func TestSolveMultiSingular(t *testing.T) {
	a := []float64{1, 1, 1, 1}
	b := []float64{1, 1}
	if _, err := solveMulti(a, b, 2, 1); err == nil {
		t.Error("singular system accepted")
	}
}

func TestLayerForwardShapesAndRange(t *testing.T) {
	n := trained(t)
	img := RenderDigit(3, 0, 0)
	l1 := make([]float32, Layer1Neurons)
	n.Layer1Forward(img, l1)
	for i, v := range l1 {
		if v < -1.72 || v > 1.72 {
			t.Fatalf("l1[%d] = %v outside tanh range", i, v)
		}
	}
	l2 := make([]float32, Layer2Neurons)
	n.Layer2Forward(l1, l2)
	l3 := make([]float32, Layer3Units)
	n.Layer3Forward(l2, l3)
	out := make([]float32, Classes)
	n.Layer4Forward(l3, out)
	// Class 3 should win on its own clean glyph.
	best := 0
	for c := range out {
		if out[c] > out[best] {
			best = c
		}
	}
	if best != 3 {
		t.Errorf("clean glyph 3 classified as %d", best)
	}
}

// weightHash is the SHA-256 of the little-endian IEEE bits of
// Layer1W‖Layer2W‖Layer3W‖Layer4W.
func weightHash(n *Network) string {
	h := sha256.New()
	var buf [4]byte
	for _, layer := range [][]float32{n.Layer1W, n.Layer2W, n.Layer3W, n.Layer4W} {
		for _, v := range layer {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainedNetworkGolden pins the constructed weights bit for bit. Every
// C-NN golden (stuck-at outcomes, campaign verdicts, the golden output)
// derives from them, so a kernel or training change that moves one rounding
// shows up here first. The hashes come from one-output-at-a-time layers
// (refLayer*Forward) and serial feature extraction; training must reproduce
// them at any GOMAXPROCS.
func TestTrainedNetworkGolden(t *testing.T) {
	cases := []struct {
		cfg  TrainConfig
		want string
	}{
		{TrainConfig{}, "607c3eda58cd169bae964d4e1e944d460182d8f1579de92a1007984ae0c674f1"},
		{TrainConfig{TrainSamples: 60}, "fbff6c668ac0b8a0067bd9404e6e3db714eb4e19d07de7a0aafaaf25a59a5e2e"},
		{TrainConfig{Seed: 7}, "3d685e16da4283da5a812162ec580e20abd9930bfca0b4dfa86b52835e11b765"},
	}
	for _, width := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%+v/gomaxprocs=%d", c.cfg, width), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
				n, err := Train(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := weightHash(n); got != c.want {
					t.Errorf("weight hash = %s, want %s", got, c.want)
				}
			})
		}
	}
}

// refLayer1Forward, refLayer2Forward and refLayer3Forward compute one
// output at a time; they define each output's float32 summation order.
func refLayer1Forward(n *Network, img []float32, out []float32) {
	for m := 0; m < Layer1Maps; m++ {
		wb := m * (1 + KernelTaps)
		bias := n.Layer1W[wb]
		for py := 0; py < Layer1Side; py++ {
			for px := 0; px < Layer1Side; px++ {
				sum := bias
				wy, wx := py*Layer1Stride, px*Layer1Stride
				for i := 0; i < KernelTaps; i++ {
					iy, ix := wy+i/KernelSide, wx+i%KernelSide
					sum += img[iy*ImageSide+ix] * n.Layer1W[wb+1+i]
				}
				out[m*Layer1Side*Layer1Side+py*Layer1Side+px] = activation(sum)
			}
		}
	}
}

func refLayer2Forward(n *Network, in []float32, out []float32) {
	for o := 0; o < Layer2Maps; o++ {
		for py := 0; py < Layer2Side; py++ {
			for px := 0; px < Layer2Side; px++ {
				var sum float32
				wy, wx := py*Layer1Stride, px*Layer1Stride
				for m := 0; m < Layer1Maps; m++ {
					wb := (o*Layer1Maps + m) * (1 + KernelTaps)
					sum += n.Layer2W[wb] // per-(out,in) bias contribution
					base := m * Layer1Side * Layer1Side
					for i := 0; i < KernelTaps; i++ {
						iy, ix := wy+i/KernelSide, wx+i%KernelSide
						sum += in[base+iy*Layer1Side+ix] * n.Layer2W[wb+1+i]
					}
				}
				out[o*Layer2Side*Layer2Side+py*Layer2Side+px] = activation(sum)
			}
		}
	}
}

func refLayer3Forward(n *Network, in []float32, out []float32) {
	for u := 0; u < Layer3Units; u++ {
		wb := u * (Layer2Neurons + 1)
		sum := n.Layer3W[wb]
		for i := 0; i < Layer2Neurons; i++ {
			sum += in[i] * n.Layer3W[wb+1+i]
		}
		out[u] = activation(sum)
	}
}

// refNormalEquations accumulates the fit serially: features from the
// reference layers, one sample at a time, the full XᵀX square.
func refNormalEquations(n *Network, ds Dataset) (a, b []float64) {
	const dim = Layer3Units + 1
	a = make([]float64, dim*dim)
	b = make([]float64, dim*Classes)
	x := make([]float64, dim)
	l1 := make([]float32, Layer1Neurons)
	l2 := make([]float32, Layer2Neurons)
	l3 := make([]float32, Layer3Units)
	for s, img := range ds.Images {
		refLayer1Forward(n, img, l1)
		refLayer2Forward(n, l1, l2)
		refLayer3Forward(n, l2, l3)
		x[0] = 1
		for i, f := range l3 {
			x[i+1] = float64(f)
		}
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				a[i*dim+j] += x[i] * x[j]
			}
			for cls := 0; cls < Classes; cls++ {
				y := -1.0
				if cls == ds.Labels[s] {
					y = 1.0
				}
				b[i*Classes+cls] += x[i] * y
			}
		}
	}
	return a, b
}

// TestNormalEquationsMatchReference checks the fit's float64 sums bit for
// bit, which the float32 weights can hide. At GOMAXPROCS 4 the features are
// extracted on four goroutines whatever the host's core count, so a sum
// that depended on how samples split across workers would show.
func TestNormalEquationsMatchReference(t *testing.T) {
	n := trained(t)
	ds := GenerateDataset(120, 5)
	wantA, wantB := refNormalEquations(n, ds)
	for _, width := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", width), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
			a, b := n.normalEquations(ds)
			for i := range wantA {
				if math.Float64bits(a[i]) != math.Float64bits(wantA[i]) {
					t.Fatalf("XᵀX[%d] = %v, reference %v", i, a[i], wantA[i])
				}
			}
			for i := range wantB {
				if math.Float64bits(b[i]) != math.Float64bits(wantB[i]) {
					t.Fatalf("XᵀY[%d] = %v, reference %v", i, b[i], wantB[i])
				}
			}
		})
	}
}

// randomFloats returns n normally distributed values from rng.
func randomFloats(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// TestLayerForwardMatchesReference checks the blocked kernels against the
// reference loops bit for bit, on the trained network (with an image and
// the activations it produces) and on seeded random weights and inputs,
// whose nonzero biases also pin where each bias enters the sum.
func TestLayerForwardMatchesReference(t *testing.T) {
	type inputs struct {
		net    *Network
		img    []float32
		l1, l2 []float32
	}
	var sets []inputs
	net := trained(t)
	img := GenerateDataset(1, 42).Images[0]
	l1 := make([]float32, Layer1Neurons)
	l2 := make([]float32, Layer2Neurons)
	refLayer1Forward(net, img, l1)
	refLayer2Forward(net, l1, l2)
	sets = append(sets, inputs{net, img, l1, l2})
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sets = append(sets, inputs{
			net: &Network{
				Layer1W: randomFloats(rng, Layer1Weights),
				Layer2W: randomFloats(rng, Layer2Weights),
				Layer3W: randomFloats(rng, Layer3Weights),
				Layer4W: randomFloats(rng, Layer4Weights),
			},
			img: randomFloats(rng, ImagePixels),
			l1:  randomFloats(rng, Layer1Neurons),
			l2:  randomFloats(rng, Layer2Neurons),
		})
	}
	same := func(t *testing.T, layer string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s[%d] = %v (%#08x), reference %v (%#08x)", layer, i,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	for k, s := range sets {
		t.Run(fmt.Sprintf("set%d", k), func(t *testing.T) {
			got, want := make([]float32, Layer1Neurons), make([]float32, Layer1Neurons)
			s.net.Layer1Forward(s.img, got)
			refLayer1Forward(s.net, s.img, want)
			same(t, "layer1", got, want)

			got, want = make([]float32, Layer2Neurons), make([]float32, Layer2Neurons)
			s.net.Layer2Forward(s.l1, got)
			refLayer2Forward(s.net, s.l1, want)
			same(t, "layer2", got, want)

			got, want = make([]float32, Layer3Units), make([]float32, Layer3Units)
			s.net.Layer3Forward(s.l2, got)
			refLayer3Forward(s.net, s.l2, want)
			same(t, "layer3", got, want)
		})
	}
}

var trainSink *Network

func BenchmarkTrain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, err := Train(TrainConfig{})
		if err != nil {
			b.Fatal(err)
		}
		trainSink = n
	}
}

func BenchmarkInference(b *testing.B) {
	n, err := Train(TrainConfig{TrainSamples: 50})
	if err != nil {
		b.Fatal(err)
	}
	img := RenderDigit(5, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Infer(img)
	}
}
