package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/simt"
)

var updateRecordingsGolden = flag.Bool("update-recordings-golden", false,
	"regenerate testdata/recordings_golden.json from the current functional simulator")

// gob numbers each type the first time a process encodes it, and writes
// those numbers into every stream. Encoding the traces' type here, before
// any test runs, fixes its numbers, so the traces digest does not depend on
// which tests encoded what before TestRecordingsGolden.
func init() {
	if err := gob.NewEncoder(io.Discard).Encode([]*simt.KernelTrace(nil)); err != nil {
		panic(err)
	}
}

// recordingsGoldenRow is one application's recordings in the golden file:
// the SHA-256 of the gob encoding of its traces (Suite.Traces), and of its
// baseline golden artifact's output (IEEE bits) and recording (a canonical
// walk, recordingDigest), so neither moves with the artifact's encoding.
type recordingsGoldenRow struct {
	App       string `json:"app"`
	Traces    string `json:"traces_sha256"`
	Output    string `json:"output_sha256"`
	Recording string `json:"recording_sha256"`
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

// canonicalWriter feeds a hash 32-bit little-endian words through a
// buffer.
type canonicalWriter struct {
	h   hash.Hash
	buf []byte
}

func (w *canonicalWriter) word(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	if len(w.buf) >= 1<<16 {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

// blocks writes a length-prefixed block list.
func (w *canonicalWriter) blocks(bs []arch.BlockAddr) {
	w.word(uint32(len(bs)))
	for _, b := range bs {
		w.word(uint32(b))
	}
}

// lanes writes a vector access's per-lane index vector and values over a
// warp of n lanes, prefixed by n: InactiveLane and 0 at inactive lanes.
func (w *canonicalWriter) lanes(wc *simt.Warp, a *simt.Access, n int) {
	var buf [arch.WarpSize]int32
	idx, vals := wc.Index(a, &buf), wc.Vals(a)
	w.word(uint32(n))
	for lane := range n {
		x := simt.InactiveLane
		if lane < len(idx) {
			x = idx[lane]
		}
		w.word(uint32(x))
	}
	for lane := range n {
		var v uint32
		if lane < len(vals) {
			v = vals[lane]
		}
		w.word(v)
	}
}

func (w *canonicalWriter) sum() string {
	w.h.Write(w.buf)
	return hex.EncodeToString(w.h.Sum(nil))
}

// outputDigest returns the SHA-256 of an output's IEEE bits.
func outputDigest(out []float32) string {
	w := canonicalWriter{h: sha256.New()}
	for _, v := range out {
		w.word(math.Float32bits(v))
	}
	return w.sum()
}

// recordingDigest returns the SHA-256 of a canonical walk over a golden
// recording of kernels, which depends on what the recording holds and not
// on how it is laid out or encoded. Every sequence is length-prefixed: per
// launch, its warps; per warp, its read footprint, then each load (PC,
// object, then either a broadcast flag, index and value, or a vector flag
// and the per-lane indices and values, InactiveLane and 0 at inactive
// lanes, then its blocks), then each store (PC, object, per-lane indices
// and values, blocks).
func recordingDigest(kernels []*simt.Kernel, launches []simt.Launch) string {
	w := canonicalWriter{h: sha256.New()}
	w.word(uint32(len(launches)))
	for ki := range launches {
		l, k := &launches[ki], kernels[ki]
		w.word(uint32(len(l.Warps)))
		for g := range l.Warps {
			_, wi := k.WarpAt(g)
			lanes, wc := k.WarpLanes(wi), l.Warp(g)
			w.blocks(wc.Footprint)
			w.word(uint32(len(wc.Loads)))
			for i := range wc.Loads {
				ld := &wc.Loads[i]
				w.word(uint32(ld.PC))
				w.word(uint32(ld.BufID))
				if ld.Kind == simt.Broadcast {
					w.word(1)
					w.word(uint32(ld.Base))
					w.word(wc.Vals(ld)[0])
				} else {
					w.word(0)
					w.lanes(&wc, ld, lanes)
				}
				w.blocks(wc.Blocks(ld))
			}
			w.word(uint32(len(wc.Stores)))
			for i := range wc.Stores {
				st := &wc.Stores[i]
				w.word(uint32(st.PC))
				w.word(uint32(st.BufID))
				w.lanes(&wc, st, lanes)
				w.blocks(wc.Blocks(st))
			}
		}
	}
	return w.sum()
}

// TestRecordingsGolden pins, for every application, the content of the two
// recordings the functional simulator makes: the traced run the timing
// engine and the access profile replay, and the captured golden run (its
// output and recording) that batched campaigns replay and the store
// persists. golden_stats.json and
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
		got = append(got, recordingsGoldenRow{App: name, Traces: gobDigest(t, traces),
			Output: outputDigest(golden.Output), Recording: recordingDigest(cp.App.Kernels, golden.Launches)})
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
