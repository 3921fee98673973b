package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// Model is one fault-injection configuration: a named, parameterized
// corruption pattern a campaign applies to each run's forked memory image.
// Implementations must be comparable value types (campaign code uses them
// as map keys) and must draw all per-run randomness from the rng passed to
// Inject, in a fixed consumption order, so that a campaign's results are
// reproducible from (Campaign.Seed, run index) alone.
type Model interface {
	// Name is the model's registry name ("stuck-at", "transient", "burst").
	Name() string
	// Params renders the model's parameters canonically: key=value pairs in
	// alphabetical key order, comma-separated. Together with Name it forms
	// the model's store-key identity (see ModelKey), so two configurations
	// with different behaviour must never render identically.
	Params() string
	// Validate reports whether the configuration is usable.
	Validate() error
	// Inject arms one run's faults on the forked memory image. sel chooses
	// the target blocks; env carries the run's scratch, which every draw
	// uses, and optional checkpoint context. Call the package-level Inject
	// wrapper, which validates first and supplies missing scratch.
	Inject(m *mem.Memory, rng *rand.Rand, sel Selector, env *Env) (Injection, error)
	// String renders the model for tables and logs (e.g. "3-bit/1-block").
	String() string
}

// Env carries one run's injection context: the worker's scratch and the
// per-checkpoint context some models consult.
type Env struct {
	// Timeline is the store-commit horizon of one timing replay of the
	// target application (a timing.BlockLog's, from the replay that also
	// counts the Fig. 8 misses). The transient model uses it to decide
	// whether a store committed after the injection instant overwrites —
	// and therefore masks — the flip. When absent, the transient model
	// conservatively treats every flip as persisting to the end of the run.
	Timeline *Timeline
	// Scratch holds the per-worker buffers every draw uses. Reusing it
	// across runs saves their allocation and cannot change results.
	Scratch *Scratch
}

// Timeline is the per-block store-commit horizon of one timing replay:
// LastStore[b] holds the cycle of the last store transaction committed to
// block b at the L2/DRAM side, and TotalCycles spans the whole replay. The
// transient model draws its injection instant uniformly from
// [0, TotalCycles) and consults LastStore for overwrite masking.
type Timeline struct {
	// TotalCycles is the replay's total cycle count across all kernels.
	TotalCycles int64
	// LastStore maps each stored-to block to its final store-commit cycle.
	// Blocks never stored keep no entry. Lookup-only: iteration order never
	// influences results.
	LastStore map[arch.BlockAddr]int64
}

// Injection reports what one run's injection did.
type Injection struct {
	// Blocks are the targeted 128 B blocks.
	Blocks []arch.BlockAddr
	// Pre, when non-zero, classifies the run at injection time, without
	// executing it: a transient flip provably overwritten by a later store
	// or corrected by ECC (Masked), or a corruption ECC detects but cannot
	// correct (DUE). Callers must honour it and skip the functional run.
	Pre Outcome
}

// Inject validates the model and selector, then arms one run's faults on
// the memory image. env may be nil, or lack scratch: the run then draws
// into fresh scratch. This is the single entry point the campaign layer
// uses for every model.
func Inject(m *mem.Memory, rng *rand.Rand, model Model, sel Selector, env *Env) (Injection, error) {
	if model == nil {
		return Injection{}, fmt.Errorf("fault: nil model")
	}
	if err := model.Validate(); err != nil {
		return Injection{}, err
	}
	if sel == nil {
		return Injection{}, fmt.Errorf("fault: nil selector")
	}
	if env == nil {
		env = &Env{}
	}
	if env.Scratch == nil {
		env = &Env{Timeline: env.Timeline, Scratch: &Scratch{}}
	}
	return model.Inject(m, rng, sel, env)
}

// NeedsTimeline reports whether the model consults Env.Timeline, letting
// callers skip the timing replay that captures it for models that never
// look: only the transient model does.
func NeedsTimeline(m Model) bool {
	switch m.(type) {
	case Transient, *Transient:
		return true
	}
	return false
}

// ModelInfo is a model's serializable identity: what figure cells carry
// and disk-persisted results round-trip through gob (interface values
// would not encode). It is comparable, so it also serves as a map key.
type ModelInfo struct {
	// Name is the registry name; Params the canonical parameter rendering.
	Name, Params string
	// Label is the human-readable rendering (Model.String()).
	Label string
}

// Info captures a model's serializable identity.
func Info(m Model) ModelInfo {
	return ModelInfo{Name: m.Name(), Params: m.Params(), Label: m.String()}
}

// Key renders the identity in canonical store-key form: name{params}.
func (i ModelInfo) Key() string { return i.Name + "{" + i.Params + "}" }

// String returns the human-readable label.
func (i ModelInfo) String() string { return i.Label }

// ModelKey renders a model's canonical store-key identity: name{params}.
// Every result cache keyed on a model folds this in, so results computed
// under different models (or the same model at different parameters) can
// never alias.
func ModelKey(m Model) string { return Info(m).Key() }

// ModelsKey renders a model list for store keys: the models' keys joined
// with ";" in list order (order is part of the identity — a reordered
// model sweep produces reordered cells).
func ModelsKey(models []Model) string {
	keys := make([]string, len(models))
	for i, m := range models {
		keys[i] = ModelKey(m)
	}
	return strings.Join(keys, ";")
}

// models maps each model name ParseModel accepts to its constructor, which
// builds the model from the parsed parameter map: missing keys take the
// model's documented defaults, unknown keys are rejected.
var models = map[string]func(params map[string]int) (Model, error){
	"stuck-at":  newStuckAt,
	"transient": newTransient,
	"burst":     newBurst,
}

// ModelNames lists the model names ParseModel accepts, sorted.
func ModelNames() []string {
	names := make([]string, 0, len(models))
	for n := range models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseModel parses a model spec of the form "name" or "name:k=v,k=v"
// (e.g. "stuck-at:bits=3,blocks=1", "transient:flips=2", "burst") into a
// validated Model. Omitted parameters take the model's defaults; unknown
// names and keys are errors listing the registered alternatives.
func ParseModel(spec string) (Model, error) {
	name := spec
	var paramStr string
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, paramStr = spec[:i], spec[i+1:]
	}
	name = strings.TrimSpace(name)
	f, ok := models[name]
	if !ok {
		return nil, fmt.Errorf("fault: unknown model %q (registered: %s)",
			name, strings.Join(ModelNames(), ", "))
	}
	params := map[string]int{}
	if paramStr != "" {
		for _, kv := range strings.Split(paramStr, ",") {
			k, v, found := strings.Cut(kv, "=")
			k = strings.TrimSpace(k)
			if !found || k == "" {
				return nil, fmt.Errorf("fault: model %q: malformed parameter %q (want key=value)", name, kv)
			}
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				return nil, fmt.Errorf("fault: model %q: parameter %s: %v", name, k, err)
			}
			if _, dup := params[k]; dup {
				return nil, fmt.Errorf("fault: model %q: duplicate parameter %s", name, k)
			}
			params[k] = n
		}
	}
	m, err := f(params)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ParseModels parses a semicolon-separated list of model specs (the CLI
// -model flag format), e.g. "stuck-at:bits=3;transient:flips=2".
func ParseModels(specs string) ([]Model, error) {
	var out []Model
	for _, spec := range strings.Split(specs, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		m, err := ParseModel(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fault: empty model list")
	}
	return out, nil
}

// paramKeys validates that params contains no keys outside allowed.
func paramKeys(name string, params map[string]int, allowed ...string) error {
	for k := range params {
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("fault: model %q: unknown parameter %q (accepts: %s)",
				name, k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// param returns params[key] or def when absent.
func param(params map[string]int, key string, def int) int {
	if v, ok := params[key]; ok {
		return v
	}
	return def
}

// targetWords returns how many leading 32-bit words of block b are covered
// by the owning data object — the word population every model draws its
// target word from. Small objects (a 3×3 filter, a scalar) occupy only the
// head of their 128 B block, and a fault in allocation padding would be
// trivially masked.
func targetWords(m *mem.Memory, b arch.BlockAddr) int {
	words := arch.WordsPerBlock
	if buf, ok := m.BufferAt(b.Base()); ok {
		used := (int(buf.Base) + buf.Size - int(b.Base()) + arch.WordBytes - 1) / arch.WordBytes
		if used < words {
			words = used
		}
		if words < 1 {
			words = 1
		}
	}
	return words
}
