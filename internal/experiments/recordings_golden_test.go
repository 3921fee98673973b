package experiments

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/simt"
)

var updateRecordingsGolden = flag.Bool("update-recordings-golden", false,
	"regenerate testdata/recordings_golden.json from the current functional simulator")

// gob numbers each type the first time a process encodes it, and writes
// those numbers into every stream. Encoding both digested types here, before
// any test runs, fixes their numbers, so a digest does not depend on which
// tests encoded what before TestRecordingsGolden.
func init() {
	for _, v := range []any{[]*simt.KernelTrace(nil), goldenArtifact{}} {
		if err := gob.NewEncoder(io.Discard).Encode(v); err != nil {
			panic(err)
		}
	}
}

// recordingsGoldenRow is one application's recordings in the golden file:
// the SHA-256 of the gob encoding of its traces (Suite.Traces) and of its
// baseline golden artifact (output and recorded warps).
type recordingsGoldenRow struct {
	App    string `json:"app"`
	Traces string `json:"traces_sha256"`
	Golden string `json:"golden_sha256"`
}

// gobDigest returns the SHA-256 of v's gob encoding.
func gobDigest(t *testing.T, v any) string {
	t.Helper()
	h := sha256.New()
	if err := gob.NewEncoder(h).Encode(v); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRecordingsGolden pins, for every application, the bytes of the two
// recordings the functional simulator makes: the traced run the timing
// engine and the access profile replay, and the captured golden run that
// batched campaigns replay and the store persists. golden_stats.json and
// missweights_golden.json pin only what the timing engine derives from the
// traces, and no figure shows a recorded load value, so a change to how
// loads are gathered, recorded or traced shows up here first.
//
// Regenerate (only when an intentional semantic change is made):
//
//	go test ./internal/experiments -run TestRecordingsGolden -update-recordings-golden
func TestRecordingsGolden(t *testing.T) {
	s := testSuite(t)
	var got []recordingsGoldenRow
	for _, name := range s.AllNames() {
		traces, err := s.Traces(name)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := s.Checkpoint(name, core.None, 0)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := computeGoldenArtifact(cp)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, recordingsGoldenRow{App: name, Traces: gobDigest(t, traces), Golden: gobDigest(t, golden)})
	}

	path := filepath.Join("testdata", "recordings_golden.json")
	if *updateRecordingsGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(got), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update-recordings-golden): %v", err)
	}
	var want []recordingsGoldenRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: got %+v, golden %+v", want[i].App, got[i], want[i])
		}
	}
}
