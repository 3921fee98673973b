package profile

import (
	"sync"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/kernels"
	"github.com/datacentric-gpu/dcrm/internal/nn"
)

var (
	netOnce sync.Once
	netVal  *nn.Network
	netErr  error
)

func smallNet(t *testing.T) *nn.Network {
	t.Helper()
	netOnce.Do(func() { netVal, netErr = nn.Train(nn.TrainConfig{TrainSamples: 60}) })
	if netErr != nil {
		t.Fatal(netErr)
	}
	return netVal
}

// collect profiles the application from one traced run.
func collect(t *testing.T, app *kernels.App) *Profile {
	t.Helper()
	traces, err := app.TraceRun()
	if err != nil {
		t.Fatalf("TraceRun(%s): %v", app.Name, err)
	}
	return Collect(app, traces)
}

func TestBICGProfileShape(t *testing.T) {
	// The knee ratio for P-BICG grows as ≈N/33, so use a size where the
	// hot blocks clearly separate.
	app, err := kernels.NewBICG(kernels.BICGConfig{NX: 512, NY: 512})
	if err != nil {
		t.Fatal(err)
	}
	p := collect(t, app)
	if !p.HasHotPattern() {
		t.Error("P-BICG profile lacks the Fig. 3(b) hot knee")
	}
	// Observation I: blocks sorted ascending with a steep tail.
	if p.MaxMinRatio() < 10 {
		t.Errorf("max/min ratio = %.1f, want a pronounced knee", p.MaxMinRatio())
	}
	// The top-ranked objects must be the hot ground truth: p and r.
	if len(p.Objects) < 3 {
		t.Fatalf("objects = %d, want 3", len(p.Objects))
	}
	top2 := map[string]bool{p.Objects[0].Name: true, p.Objects[1].Name: true}
	if !top2["p"] || !top2["r"] {
		t.Errorf("top objects = %q,%q, want p and r", p.Objects[0].Name, p.Objects[1].Name)
	}
	if p.Objects[2].Name != "A" {
		t.Errorf("third object = %q, want A (Table III order)", p.Objects[2].Name)
	}
	// Table III: hot footprint is tiny; hot access share is a small but
	// meaningful fraction (paper: 0.064% and 5.7% at full scale).
	size := p.HotSizePercent(app.HotObjects())
	if size <= 0 || size > 2 {
		t.Errorf("hot size%% = %.3f, want small", size)
	}
	access := p.HotAccessPercent(app.HotObjects())
	if access < 2 || access > 15 {
		t.Errorf("hot access%% = %.1f, want ≈5.7", access)
	}
}

func TestBICGHotBlocksMatchGroundTruth(t *testing.T) {
	app, err := kernels.NewBICG(kernels.BICGConfig{NX: 256, NY: 256})
	if err != nil {
		t.Fatal(err)
	}
	p := collect(t, app)
	truth := map[string]bool{}
	for _, o := range app.HotObjects() {
		truth[o.Name] = true
	}
	for _, b := range p.HotBlocks() {
		// Find the block's object.
		var objName string
		for _, bs := range p.Blocks {
			if bs.Block == b {
				objName = bs.Object
				break
			}
		}
		if !truth[objName] {
			t.Errorf("profiled hot block %d belongs to %q, not a hot object", b, objName)
		}
	}
	if len(p.HotBlocks()) == 0 {
		t.Error("no hot blocks identified")
	}
}

func TestFlatProfileBlackScholes(t *testing.T) {
	app, err := kernels.NewBlackScholes(kernels.BlackScholesConfig{Options: 2048})
	if err != nil {
		t.Fatal(err)
	}
	p := collect(t, app)
	if p.HasHotPattern() {
		t.Error("C-BlackScholes profile shows a hot knee; Fig. 3(g) is flat")
	}
	// Every accessed block has the same count (one coalesced read each).
	if p.MaxMinRatio() != 1 {
		t.Errorf("max/min = %.2f, want 1 (flat)", p.MaxMinRatio())
	}
}

func TestStaircaseProfileGramSchmidt(t *testing.T) {
	app, err := kernels.NewGramSchmidt(kernels.GramSchmidtConfig{N: 32})
	if err != nil {
		t.Fatal(err)
	}
	p := collect(t, app)
	if p.HasHotPattern() {
		t.Error("P-GRAMSCHM profile shows a hot knee; Fig. 3(h) is a staircase")
	}
	// Counts rise gradually: the ratio between adjacent sorted counts stays
	// small compared to hot-knee apps.
	series := p.NormalizedReadSeries(50)
	if len(series) < 10 {
		t.Fatalf("series too short: %d", len(series))
	}
	if series[len(series)-1] != 1 {
		t.Error("series not normalized to 1")
	}
}

func TestWarpSharingBICG(t *testing.T) {
	// Observation II: the hottest blocks are shared by (nearly) all warps.
	app, err := kernels.NewBICG(kernels.BICGConfig{NX: 256, NY: 256})
	if err != nil {
		t.Fatal(err)
	}
	p := collect(t, app)
	series := p.WarpSharePercentSeries(100)
	if len(series) == 0 {
		t.Fatal("empty warp share series")
	}
	if top := series[len(series)-1]; top < 99 {
		t.Errorf("hottest block shared by %.1f%% of warps, want ~100%%", top)
	}
	// Cold blocks (matrix) are touched by few warps.
	if bottom := series[0]; bottom > 20 {
		t.Errorf("coldest block shared by %.1f%% of warps, want few", bottom)
	}
}

func TestCNNProfile(t *testing.T) {
	app, err := kernels.NewCNN(kernels.CNNConfig{Images: 8, Net: smallNet(t)})
	if err != nil {
		t.Fatal(err)
	}
	p := collect(t, app)
	if !p.HasHotPattern() {
		t.Error("C-NN profile lacks the Fig. 3(a) hot knee")
	}
	// Table III: Layer1_Weights ranks first; Layer2_Weights overtakes
	// Images once enough images are batched (its per-block count scales
	// with the batch, the Images per-block count does not).
	if p.Objects[0].Name != "Layer1_Weights" {
		t.Errorf("top object = %q, want Layer1_Weights", p.Objects[0].Name)
	}
	if p.Objects[1].Name != "Layer2_Weights" {
		t.Errorf("second object = %q, want Layer2_Weights", p.Objects[1].Name)
	}
	// C-NN has the paper's largest hot footprint: ~2.15% of app memory.
	size := p.HotSizePercent(app.HotObjects())
	if size < 0.5 || size > 8 {
		t.Errorf("hot size%% = %.2f, want ≈2.15", size)
	}
	// Hot access share ≈35% in the paper.
	access := p.HotAccessPercent(app.HotObjects())
	if access < 10 || access > 60 {
		t.Errorf("hot access%% = %.1f, want ≈35 (scale-dependent)", access)
	}
	// C-NN's concentration ratio is enormous (paper: 4732×).
	if p.MaxMinRatio() < 100 {
		t.Errorf("max/min = %.0f, want ≫100", p.MaxMinRatio())
	}
}

func TestStencilProfiles(t *testing.T) {
	tests := []struct {
		name              string
		build             func() (*kernels.App, error)
		minAcc, maxAcc    float64 // expected hot access%% band (paper values)
		paperHotAccessPct float64
	}{
		{"A-Laplacian", func() (*kernels.App, error) {
			return kernels.NewLaplacian(kernels.StencilConfig{})
		}, 55, 90, 73},
		{"A-Sobel", func() (*kernels.App, error) {
			return kernels.NewSobel(kernels.StencilConfig{})
		}, 55, 95, 73},
		{"A-Meanfilter", func() (*kernels.App, error) {
			return kernels.NewMeanfilter(kernels.StencilConfig{})
		}, 25, 55, 39.89},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			app, err := tt.build()
			if err != nil {
				t.Fatal(err)
			}
			p := collect(t, app)
			if !p.HasHotPattern() {
				t.Error("missing hot knee")
			}
			acc := p.HotAccessPercent(app.HotObjects())
			if acc < tt.minAcc || acc > tt.maxAcc {
				t.Errorf("hot access%% = %.1f, want ≈%.1f (band %.0f–%.0f)",
					acc, tt.paperHotAccessPct, tt.minAcc, tt.maxAcc)
			}
			size := p.HotSizePercent(app.HotObjects())
			if size > 1 {
				t.Errorf("hot size%% = %.3f, want ≪1", size)
			}
		})
	}
}

func TestSRADProfile(t *testing.T) {
	app, err := kernels.NewSRAD(kernels.SRADConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := collect(t, app)
	if !p.HasHotPattern() {
		t.Error("A-SRAD profile lacks a hot knee")
	}
	// The four index arrays outrank the image.
	truth := map[string]bool{"i_N": true, "i_S": true, "i_E": true, "i_W": true}
	for i := 0; i < 4; i++ {
		if !truth[p.Objects[i].Name] {
			t.Errorf("object rank %d = %q, want an index array", i, p.Objects[i].Name)
		}
	}
}

func TestSeriesSubsampling(t *testing.T) {
	app, err := kernels.NewBICG(kernels.BICGConfig{NX: 256, NY: 256})
	if err != nil {
		t.Fatal(err)
	}
	p := collect(t, app)
	s := p.NormalizedReadSeries(10)
	if len(s) != 10 {
		t.Fatalf("series length %d, want 10", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatal("series not non-decreasing")
		}
	}
	if s[9] != 1 {
		t.Error("last point not normalized to 1")
	}
	if got := p.NormalizedReadSeries(0); got != nil {
		t.Error("zero maxPoints returned data")
	}
}

// TestSeriesOnePoint: a one-point series is defined (it used to divide by
// maxPoints-1) and holds the coldest block, the first point of every
// longer series.
func TestSeriesOnePoint(t *testing.T) {
	app, err := kernels.NewBICG(kernels.BICGConfig{NX: 256, NY: 256})
	if err != nil {
		t.Fatal(err)
	}
	p := collect(t, app)
	for name, series := range map[string]func(int) []float64{
		"NormalizedReadSeries":   p.NormalizedReadSeries,
		"WarpSharePercentSeries": p.WarpSharePercentSeries,
	} {
		one, ten := series(1), series(10)
		if len(one) != 1 || one[0] != ten[0] {
			t.Errorf("%s(1) = %v, want [%v]", name, one, ten[0])
		}
	}
}
