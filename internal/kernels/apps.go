// Package kernels re-implements the GPGPU applications the paper evaluates
// (Table II): C-NN, P-BICG, P-GESUMMV, P-MVT from Polybench, A-Laplacian,
// A-Meanfilter, A-Sobel, A-SRAD from AxBench/Rodinia — plus the two Fig. 3
// counter-examples, C-BlackScholes and P-GRAMSCHM, whose access profiles
// have no hot knee. Each application declares its input data objects
// (Table III), its static load sites, its kernel launch sequence as warp
// programs over the simt execution model, and its output error metric
// (Table II).
package kernels

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/mem"
	"github.com/datacentric-gpu/dcrm/internal/metrics"
	"github.com/datacentric-gpu/dcrm/internal/simt"
)

// App is one ready-to-run GPGPU application.
type App struct {
	// Name is the paper's label, e.g. "P-BICG".
	Name string
	// Mem is the golden device memory image: inputs initialised, outputs
	// zero. Runs always execute against copy-on-write forks (or full
	// clones) so the image stays pristine.
	Mem *mem.Memory
	// Kernels is the launch sequence.
	Kernels []*simt.Kernel
	// Objects are the input data objects in Table III priority order
	// (highest access concentration first).
	Objects []*mem.Buffer
	// HotCount says how many leading Objects are the hot data objects.
	HotCount int
	// Sites are the application's static load sites with their target
	// objects.
	Sites []core.SiteBinding
	// Metric judges output quality (Table II).
	Metric metrics.Metric
	// output extracts the output under the metric from a post-run memory.
	output func(m *mem.Memory) []float32
}

// HotObjects returns the hot data objects (the emboldened entries of
// Table III).
func (a *App) HotObjects() []*mem.Buffer {
	return append([]*mem.Buffer(nil), a.Objects[:a.HotCount]...)
}

// Output extracts the application output from a post-run memory image.
func (a *App) Output(m *mem.Memory) []float32 { return a.output(m) }

// RunOn executes every kernel functionally against m (normally a clone of
// a.Mem), reading through reader when non-nil (the protection plan's
// functional path). Out-of-bounds loads caused by fault-corrupted indices
// read wrapped device memory, as GPU hardware would, so such faults
// propagate to the output instead of aborting the run.
func (a *App) RunOn(m *mem.Memory, reader simt.WordReader) error {
	d := &simt.Driver{Mem: m, Reader: reader, PermissiveOOB: true}
	for _, k := range a.Kernels {
		if _, err := d.Run(k); err != nil {
			return fmt.Errorf("kernels: %s: %w", a.Name, err)
		}
	}
	return nil
}

// CaptureRun executes every kernel against m exactly as RunOn would
// (reading through reader when non-nil) while recording each warp's loads
// and stores into the returned log — the reference recording batched
// campaigns replay faulty runs against. m is mutated like any run target;
// callers normally pass a throwaway fork.
func (a *App) CaptureRun(m *mem.Memory, reader simt.WordReader) (*simt.CaptureLog, error) {
	log := &simt.CaptureLog{}
	d := &simt.Driver{Mem: m, Reader: reader, PermissiveOOB: true, Capture: log}
	for _, k := range a.Kernels {
		if _, err := d.Run(k); err != nil {
			return nil, fmt.Errorf("kernels: %s: %w", a.Name, err)
		}
	}
	return log, nil
}

// GoldenRun executes the app on a pristine copy-on-write fork of its image
// and returns the fault-free baseline output.
func (a *App) GoldenRun() ([]float32, error) {
	m := a.Mem.Fork()
	if err := a.RunOn(m, nil); err != nil {
		return nil, err
	}
	return a.Output(m), nil
}

// TraceRun executes the app on a pristine copy-on-write fork with tracing
// enabled and returns the per-kernel traces: the input of the timing
// simulator and of the access profile.
func (a *App) TraceRun() ([]*simt.KernelTrace, error) {
	m := a.Mem.Fork()
	d := &simt.Driver{Mem: m, Tracing: true}
	traces := make([]*simt.KernelTrace, 0, len(a.Kernels))
	for _, k := range a.Kernels {
		tr, err := d.Run(k)
		if err != nil {
			return nil, fmt.Errorf("kernels: %s: %w", a.Name, err)
		}
		traces = append(traces, tr)
	}
	return traces, nil
}

// siteSet allocates dense static-instruction PCs and records bindings.
type siteSet struct {
	next  uint16
	sites []core.SiteBinding
}

// site allocates a load/store site reading buf. Pass nil buf for store
// sites (stores are never protected).
func (s *siteSet) site(name string, buf *mem.Buffer) simt.Site {
	s.next++
	st := simt.Site{PC: s.next, Name: name}
	if buf != nil {
		s.sites = append(s.sites, core.SiteBinding{Site: st, Buf: buf})
	}
	return st
}

// Builder names an application and builds it with default (scaled-down)
// parameters.
type Builder struct {
	// Name is the paper's application label.
	Name string
	// HotPattern is true for the eight evaluated applications whose access
	// profile has a hot knee (Fig. 3(a)–(f)); false for the two
	// counter-examples (Fig. 3(g)–(h)).
	HotPattern bool
	// Build constructs the application.
	Build func() (*App, error)
}

// All returns builders for every application in the study, evaluated apps
// first, in the paper's listing order.
func All() []Builder {
	return []Builder{
		{Name: "C-NN", HotPattern: true, Build: func() (*App, error) { return NewCNN(CNNConfig{}) }},
		{Name: "P-BICG", HotPattern: true, Build: func() (*App, error) { return NewBICG(BICGConfig{}) }},
		{Name: "P-GESUMMV", HotPattern: true, Build: func() (*App, error) { return NewGESUMMV(GESUMMVConfig{}) }},
		{Name: "P-MVT", HotPattern: true, Build: func() (*App, error) { return NewMVT(MVTConfig{}) }},
		{Name: "A-Laplacian", HotPattern: true, Build: func() (*App, error) { return NewLaplacian(StencilConfig{}) }},
		{Name: "A-Meanfilter", HotPattern: true, Build: func() (*App, error) { return NewMeanfilter(StencilConfig{}) }},
		{Name: "A-Sobel", HotPattern: true, Build: func() (*App, error) { return NewSobel(StencilConfig{}) }},
		{Name: "A-SRAD", HotPattern: true, Build: func() (*App, error) { return NewSRAD(SRADConfig{}) }},
		{Name: "C-BlackScholes", HotPattern: false, Build: func() (*App, error) { return NewBlackScholes(BlackScholesConfig{}) }},
		{Name: "P-GRAMSCHM", HotPattern: false, Build: func() (*App, error) { return NewGramSchmidt(GramSchmidtConfig{}) }},
	}
}

// Evaluated returns the eight applications of the main evaluation
// (Table II).
func Evaluated() []Builder {
	all := All()
	out := make([]Builder, 0, 8)
	for _, b := range all {
		if b.HotPattern {
			out = append(out, b)
		}
	}
	return out
}

// ByName finds a builder by the paper's label.
func ByName(name string) (Builder, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return Builder{}, fmt.Errorf("kernels: unknown application %q", name)
}
