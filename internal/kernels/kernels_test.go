package kernels

import (
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/nn"
)

// smallNet caches a cheap network for the C-NN tests.
var (
	netOnce sync.Once
	netVal  *nn.Network
	netErr  error
)

func smallNet(t *testing.T) *nn.Network {
	t.Helper()
	netOnce.Do(func() {
		netVal, netErr = nn.Train(nn.TrainConfig{TrainSamples: 60})
	})
	if netErr != nil {
		t.Fatalf("nn.Train: %v", netErr)
	}
	return netVal
}

func golden(t *testing.T, a *App) []float32 {
	t.Helper()
	out, err := a.GoldenRun()
	if err != nil {
		t.Fatalf("%s golden run: %v", a.Name, err)
	}
	return out
}

func TestBICGMatchesReference(t *testing.T) {
	const n = 96
	app, err := NewBICG(BICGConfig{NX: n, NY: n})
	if err != nil {
		t.Fatal(err)
	}
	out := golden(t, app)
	if len(out) != 2*n {
		t.Fatalf("output length %d, want %d", len(out), 2*n)
	}
	// Reference from the same init formulas.
	a := make([]float32, n*n)
	r := make([]float32, n)
	p := make([]float32, n)
	for i := 0; i < n; i++ {
		r[i] = float32(i%7+1) / 7
		p[i] = float32(i%13+1) / 13
		for j := 0; j < n; j++ {
			a[i*n+j] = float32((i*(j+1))%n) / float32(n)
		}
	}
	for j := 0; j < n; j++ {
		var s float32
		for i := 0; i < n; i++ {
			s += a[i*n+j] * r[i]
		}
		if diff := math.Abs(float64(out[j] - s)); diff > 1e-3 {
			t.Fatalf("s[%d] = %v, want %v", j, out[j], s)
		}
	}
	for i := 0; i < n; i++ {
		var q float32
		for j := 0; j < n; j++ {
			q += a[i*n+j] * p[j]
		}
		if diff := math.Abs(float64(out[n+i] - q)); diff > 1e-3 {
			t.Fatalf("q[%d] = %v, want %v", i, out[n+i], q)
		}
	}
}

func TestGESUMMVMatchesReference(t *testing.T) {
	const n = 64
	app, err := NewGESUMMV(GESUMMVConfig{N: n})
	if err != nil {
		t.Fatal(err)
	}
	out := golden(t, app)
	for i := 0; i < n; i++ {
		var ta, tb float32
		for j := 0; j < n; j++ {
			av := float32((i*j+1)%n) / float32(n)
			bv := float32((i*(j+3))%n) / float32(n)
			xv := float32(j%19+1) / 19
			ta += av * xv
			tb += bv * xv
		}
		want := 1.5*ta + 2.5*tb
		if diff := math.Abs(float64(out[i] - want)); diff > 1e-3 {
			t.Fatalf("y[%d] = %v, want %v", i, out[i], want)
		}
	}
}

func TestMVTMatchesReference(t *testing.T) {
	const n = 64
	app, err := NewMVT(MVTConfig{N: n})
	if err != nil {
		t.Fatal(err)
	}
	out := golden(t, app)
	for i := 0; i < n; i++ {
		x1 := float32(i%5) / 5
		x2 := float32(i%9) / 9
		for j := 0; j < n; j++ {
			x1 += float32((i+j*2)%n) / float32(n) * (float32(j%11+1) / 11)
			x2 += float32((j+i*2)%n) / float32(n) * (float32(j%17+1) / 17)
		}
		if diff := math.Abs(float64(out[i] - x1)); diff > 1e-3 {
			t.Fatalf("x1[%d] = %v, want %v", i, out[i], x1)
		}
		if diff := math.Abs(float64(out[n+i] - x2)); diff > 1e-3 {
			t.Fatalf("x2[%d] = %v, want %v", i, out[n+i], x2)
		}
	}
}

func TestGramSchmidtProducesOrthonormalColumns(t *testing.T) {
	const n = 24
	app, err := NewGramSchmidt(GramSchmidtConfig{N: n})
	if err != nil {
		t.Fatal(err)
	}
	q := golden(t, app)
	// QᵀQ ≈ I.
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			var dot float64
			for i := 0; i < n; i++ {
				dot += float64(q[i*n+a]) * float64(q[i*n+b])
			}
			want := 0.0
			if a == b {
				want = 1.0
			}
			if math.Abs(dot-want) > 1e-3 {
				t.Fatalf("QᵀQ[%d][%d] = %v, want %v", a, b, dot, want)
			}
		}
	}
}

func TestBlackScholesSanity(t *testing.T) {
	app, err := NewBlackScholes(BlackScholesConfig{Options: 256})
	if err != nil {
		t.Fatal(err)
	}
	out := golden(t, app)
	calls, puts := out[:256], out[256:]
	m := app.Mem
	bufS, _ := m.BufferByName("StockPrice")
	bufX, _ := m.BufferByName("OptionStrike")
	bufT, _ := m.BufferByName("OptionYears")
	for i := 0; i < 256; i++ {
		s := float64(m.ReadF32(bufS.ElemAddr(i)))
		x := float64(m.ReadF32(bufX.ElemAddr(i)))
		tt := float64(m.ReadF32(bufT.ElemAddr(i)))
		c, p := float64(calls[i]), float64(puts[i])
		if c < 0 || p < 0 {
			t.Fatalf("option %d: negative price c=%v p=%v", i, c, p)
		}
		// Put-call parity: C − P = S − X·e^{−rT}.
		parity := s - x*math.Exp(-0.02*tt)
		if math.Abs((c-p)-parity) > 1e-2 {
			t.Fatalf("option %d: parity violated: C−P=%v, S−Xe^{-rT}=%v", i, c-p, parity)
		}
		// Intrinsic value bound.
		if c < s-x-1e-3 && tt > 0 {
			t.Fatalf("option %d: call %v below intrinsic %v", i, c, s-x)
		}
	}
}

func TestLaplacianMatchesReference(t *testing.T) {
	const w, h = 40, 32
	app, err := NewLaplacian(StencilConfig{Width: w, Height: h})
	if err != nil {
		t.Fatal(err)
	}
	out := golden(t, app)
	img := synthImage(w, h)
	filter := []float32{0, -1, 0, -1, 4, -1, 0, -1, 0}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var want float32
			for ky := -1; ky <= 1; ky++ {
				for kx := -1; kx <= 1; kx++ {
					nx, ny := x+kx, y+ky
					if nx < 0 || nx >= w || ny < 0 || ny >= h {
						continue
					}
					want += img[ny*w+nx] * filter[(ky+1)*3+kx+1]
				}
			}
			// Outputs are quantized to the 8-bit pixel domain like the
			// real benchmark's image files.
			if got := out[y*w+x]; math.Abs(float64(got-quantize8(want))) > 1e-5 {
				t.Fatalf("laplacian(%d,%d) = %v, want %v", x, y, got, quantize8(want))
			}
		}
	}
}

func TestMeanfilterMatchesReference(t *testing.T) {
	const w, h = 32, 24
	app, err := NewMeanfilter(StencilConfig{Width: w, Height: h})
	if err != nil {
		t.Fatal(err)
	}
	out := golden(t, app)
	img := synthImage(w, h)
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			var sum float32
			for ky := -1; ky <= 1; ky++ {
				for kx := -1; kx <= 1; kx++ {
					sum += img[(y+ky)*w+x+kx]
				}
			}
			want := quantize8(sum / 9)
			if got := out[y*w+x]; math.Abs(float64(got-want)) > 1e-5 {
				t.Fatalf("mean(%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
}

func TestSobelMatchesReference(t *testing.T) {
	const w, h = 32, 24
	app, err := NewSobel(StencilConfig{Width: w, Height: h})
	if err != nil {
		t.Fatal(err)
	}
	out := golden(t, app)
	img := synthImage(w, h)
	gxF := []float32{-1, 0, 1, -2, 0, 2, -1, 0, 1}
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			var gx, gy float32
			for ky := -1; ky <= 1; ky++ {
				for kx := -1; kx <= 1; kx++ {
					tap := (ky+1)*3 + kx + 1
					trans := (kx+1)*3 + ky + 1
					v := img[(y+ky)*w+x+kx]
					gx += v * gxF[tap]
					gy += v * gxF[trans]
				}
			}
			want := quantize8(float32(math.Abs(float64(gx)) + math.Abs(float64(gy))))
			if got := out[y*w+x]; math.Abs(float64(got-want)) > 1e-4 {
				t.Fatalf("sobel(%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
}

func TestSRADOutputReasonable(t *testing.T) {
	const w, h = 32, 32
	app, err := NewSRAD(SRADConfig{Width: w, Height: h})
	if err != nil {
		t.Fatal(err)
	}
	out := golden(t, app)
	img := synthImage(w, h)
	changed := false
	for i, v := range out {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("srad output[%d] = %v", i, v)
		}
		if v != img[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("srad did not diffuse the image")
	}
	// Diffusion smooths: total variation must not increase.
	tv := func(p []float32) float64 {
		var s float64
		for y := 0; y < h; y++ {
			for x := 0; x < w-1; x++ {
				s += math.Abs(float64(p[y*w+x+1] - p[y*w+x]))
			}
		}
		return s
	}
	if tv(out) > tv(img)*1.001 {
		t.Errorf("srad increased total variation: %v → %v", tv(img), tv(out))
	}
}

func TestCNNMatchesReferenceInference(t *testing.T) {
	net := smallNet(t)
	const images = 3
	app, err := NewCNN(CNNConfig{Images: images, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	labels := golden(t, app)
	ds := nn.GenerateDataset(images, 101) // seed 1+100 inside NewCNN
	for i := 0; i < images; i++ {
		want := net.Infer(ds.Images[i])
		if int(labels[i]) != want {
			t.Errorf("image %d: kernel classified %d, reference %d", i, int(labels[i]), want)
		}
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Fatalf("All() = %d apps, want 10", len(all))
	}
	if got := len(Evaluated()); got != 8 {
		t.Fatalf("Evaluated() = %d apps, want 8", got)
	}
	if _, err := ByName("P-BICG"); err != nil {
		t.Errorf("ByName(P-BICG): %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestAllAppsBuildAndRun(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if b.Name == "C-NN" {
				t.Skip("covered by dedicated C-NN tests (expensive build)")
			}
			app, err := b.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if app.Name != b.Name {
				t.Errorf("app name %q != builder name %q", app.Name, b.Name)
			}
			if app.HotCount > len(app.Objects) {
				t.Errorf("HotCount %d exceeds %d objects", app.HotCount, len(app.Objects))
			}
			if b.HotPattern && app.HotCount == 0 {
				t.Error("hot-pattern app declares no hot objects")
			}
			if !b.HotPattern && app.HotCount != 0 {
				t.Error("counter-example declares hot objects")
			}
			for _, o := range app.HotObjects() {
				if !o.ReadOnly {
					t.Errorf("hot object %q is not read-only", o.Name)
				}
			}
			out := golden(t, app)
			if len(out) == 0 {
				t.Fatal("empty output")
			}
			// Deterministic across runs.
			out2 := golden(t, app)
			for i := range out {
				if out[i] != out2[i] {
					t.Fatalf("output differs between golden runs at %d", i)
				}
			}
		})
	}
}

func TestGoldenRunLeavesImagePristine(t *testing.T) {
	app, err := NewBICG(BICGConfig{NX: 64, NY: 64})
	if err != nil {
		t.Fatal(err)
	}
	bufS, _ := app.Mem.BufferByName("s")
	before := app.Mem.ReadF32(bufS.ElemAddr(0))
	if _, err := app.GoldenRun(); err != nil {
		t.Fatal(err)
	}
	if got := app.Mem.ReadF32(bufS.ElemAddr(0)); got != before {
		t.Error("GoldenRun mutated the golden image")
	}
}

// TestEndToEndFaultProtection is the headline integration test: a multi-bit
// fault in a hot memory block causes an SDC at baseline, a terminate under
// detection, and a clean output under correction.
func TestEndToEndFaultProtection(t *testing.T) {
	app, err := NewBICG(BICGConfig{NX: 64, NY: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := golden(t, app)
	bufR, ok := app.Mem.BufferByName("r")
	if !ok {
		t.Fatal("no r buffer")
	}

	// Baseline: fault escapes to the output (SDC).
	base := app.Mem.Clone()
	// Stuck-at-0 on two exponent bits that are 1 in r[3] ≈ 0.571: a 2-bit
	// flip that escapes SECDED and shrinks the value by many orders of
	// magnitude.
	if err := base.InjectStuckAt(bufR.ElemAddr(3), 0x30000000, false); err != nil {
		t.Fatal(err)
	}
	if err := app.RunOn(base, nil); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	got := app.Output(base)
	sdc, err := app.Metric.IsSDC(got, want)
	if err != nil {
		t.Fatal(err)
	}
	if !sdc {
		t.Fatal("hot-block fault did not corrupt the baseline output")
	}

	// Detection: the run terminates.
	detApp, err := NewBICG(BICGConfig{NX: 64, NY: 64})
	if err != nil {
		t.Fatal(err)
	}
	detPlan, err := core.NewPlan(detApp.Mem, core.PlanConfig{
		Scheme:  core.Detection,
		Objects: detApp.HotObjects(),
		Sites:   detApp.Sites,
	})
	if err != nil {
		t.Fatal(err)
	}
	detR, _ := detApp.Mem.BufferByName("r")
	detClone := detApp.Mem.Clone()
	if err := detClone.InjectStuckAt(detR.ElemAddr(3), 0x30000000, false); err != nil {
		t.Fatal(err)
	}
	err = detApp.RunOn(detClone, detPlan.ForMemory(detClone))
	if !errors.Is(err, core.ErrFaultDetected) {
		t.Fatalf("detection run err = %v, want ErrFaultDetected", err)
	}

	// Correction: the output matches the fault-free baseline.
	corApp, err := NewBICG(BICGConfig{NX: 64, NY: 64})
	if err != nil {
		t.Fatal(err)
	}
	corPlan, err := core.NewPlan(corApp.Mem, core.PlanConfig{
		Scheme:  core.Correction,
		Objects: corApp.HotObjects(),
		Sites:   corApp.Sites,
	})
	if err != nil {
		t.Fatal(err)
	}
	corWant, err := corApp.GoldenRun()
	if err != nil {
		t.Fatal(err)
	}
	corR, _ := corApp.Mem.BufferByName("r")
	corClone := corApp.Mem.Clone()
	if err := corClone.InjectStuckAt(corR.ElemAddr(3), 0x30000000, false); err != nil {
		t.Fatal(err)
	}
	if err := corApp.RunOn(corClone, corPlan.ForMemory(corClone)); err != nil {
		t.Fatalf("correction run: %v", err)
	}
	corGot := corApp.Output(corClone)
	sdc, err = corApp.Metric.IsSDC(corGot, corWant)
	if err != nil {
		t.Fatal(err)
	}
	if sdc {
		t.Fatal("correction failed to repair the hot-block fault")
	}
}

func TestTraceRunProducesTraces(t *testing.T) {
	app, err := NewBICG(BICGConfig{NX: 64, NY: 64})
	if err != nil {
		t.Fatal(err)
	}
	traces, err := app.TraceRun()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("traces = %d, want 2 kernels", len(traces))
	}
	for _, tr := range traces {
		if tr.Instructions() == 0 || tr.Transactions() == 0 {
			t.Fatalf("kernel %s: empty trace", tr.Kernel)
		}
	}
}

func TestHotSitesFitLoadTable(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if b.Name == "C-NN" {
				t.Skip("covered via smallNet variant below")
			}
			app, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			hot := 0
			for _, sb := range app.Sites {
				for _, o := range app.HotObjects() {
					if sb.Buf.ID == o.ID {
						hot++
					}
				}
			}
			if hot > core.MaxLoadSites {
				t.Errorf("%d protected load sites exceed the %d-entry table", hot, core.MaxLoadSites)
			}
			if len(app.Sites) > 22+10 {
				t.Errorf("%d total load sites; the paper's apps stay ≤22", len(app.Sites))
			}
		})
	}
}

func TestCNNHotPlanBudget(t *testing.T) {
	app, err := NewCNN(CNNConfig{Images: 2, Net: smallNet(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewPlan(app.Mem.Clone(), core.PlanConfig{
		Scheme:  core.Correction,
		Objects: app.HotObjects(),
		Sites:   app.Sites,
	}); err != nil {
		// Plans must build against a clone too (shared buffer metadata).
		t.Fatalf("C-NN hot plan: %v", err)
	}
}
