package fault

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParseModel throws arbitrary spec strings at the registry parser —
// the surface the CLIs' -model flag and the daemon's "models" field expose
// to user input. Invariants: the parser never panics, never returns a nil
// model without an error, only returns validated models under registered
// names, and a returned model's canonical rendering re-parses to the same
// identity (the store-key round-trip campaigns rely on).
func FuzzParseModel(f *testing.F) {
	for _, seed := range []string{
		"stuck-at",
		"stuck-at:bits=3,blocks=1",
		"transient:flips=2",
		"burst:span=4",
		"stuck-at:bits=3,bits=4",
		"stuck-at:bits",
		"stuck-at:bits=",
		"stuck-at:=3",
		"stuck-at:bits=-1",
		"stuck-at:bits=99999999999999999999",
		" stuck-at : bits = 3 ",
		"no-such-model",
		":",
		"",
		"stuck-at:bits=3;transient",
		"burst:span=4,\x00=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseModel(spec)
		if err != nil {
			if m != nil {
				t.Fatalf("ParseModel(%q) returned both a model and an error", spec)
			}
			return
		}
		if m == nil {
			t.Fatalf("ParseModel(%q) returned nil model without error", spec)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("ParseModel(%q) returned invalid model: %v", spec, err)
		}
		if !slices.Contains(ModelNames(), m.Name()) {
			t.Fatalf("ParseModel(%q) returned unregistered model name %q", spec, m.Name())
		}
		// Canonical round-trip: Name:Params must re-parse to the same
		// identity, or the content-addressed store would alias results.
		canon := m.Name()
		if p := m.Params(); p != "" {
			canon += ":" + p
		}
		rt, err := ParseModel(canon)
		if err != nil {
			t.Fatalf("round-trip ParseModel(%q) from spec %q: %v", canon, spec, err)
		}
		if rt.Name() != m.Name() || rt.Params() != m.Params() {
			t.Fatalf("round-trip of %q changed identity: %s:%s -> %s:%s",
				spec, m.Name(), m.Params(), rt.Name(), rt.Params())
		}
		if strings.ContainsAny(m.Name(), ";") {
			t.Fatalf("model name %q contains the list separator", m.Name())
		}
	})
}
