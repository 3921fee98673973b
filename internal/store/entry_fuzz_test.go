package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzStoreEntry writes arbitrary bytes as one key's disk entry and asks a
// fresh store for the key. store.Do with Persist must never panic. When
// the bytes are a well-formed entry — the magic, the SHA-256 of the
// payload, and a payload that decodes as the value type — it serves the
// decoded value and computes nothing; otherwise it returns compute()'s
// value after exactly one compute. Either way it leaves a well-formed
// entry holding the served value behind.
func FuzzStoreEntry(f *testing.F) {
	valid := frameEntry(f, diskVal{Name: "persisted", Series: []float64{1, -2.5}})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append([]byte("dcrmsto0"), valid[len(diskMagic):]...))
	flipped := bytes.Clone(valid)
	flipped[len(diskMagic)] ^= 0x01
	f.Add(flipped)
	f.Add([]byte{})

	computed := diskVal{Name: "computed", Series: []float64{3, 4}}
	key := NewKey("fuzz").Field("entry", 1).Key()
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		path := s.disk.path(key.Hash())
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		computes := 0
		got, err := Do(s, key, Options[diskVal]{Persist: true}, func() (diskVal, error) {
			computes++
			return computed, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if decoded, ok := unframeEntry(raw); ok {
			if computes != 0 || !sameDiskVal(got, decoded) {
				t.Errorf("well-formed entry: served %+v after %d computes, want the decoded %+v and none", got, computes, decoded)
			}
		} else if computes != 1 || !sameDiskVal(got, computed) {
			t.Errorf("malformed entry: served %+v after %d computes, want the computed %+v after one", got, computes, computed)
		}

		left, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("no entry left behind: %v", err)
		}
		if v, ok := unframeEntry(left); !ok || !sameDiskVal(v, got) {
			t.Errorf("entry left behind is not a well-formed entry of the served value %+v", got)
		}
	})
}

// frameEntry encodes v the way the disk tier writes it:
// magic | sha256(payload) | gob payload.
func frameEntry(tb testing.TB, v diskVal) []byte {
	tb.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		tb.Fatal(err)
	}
	sum := sha256.Sum256(payload.Bytes())
	return slices.Concat(diskMagic, sum[:], payload.Bytes())
}

// unframeEntry is the fuzz oracle's notion of a well-formed entry: it
// reports the decoded value when raw carries the magic, the payload's
// SHA-256 and a payload that gob-decodes as a diskVal.
func unframeEntry(raw []byte) (diskVal, bool) {
	var v diskVal
	if len(raw) < diskHeaderLen || !bytes.Equal(raw[:len(diskMagic)], diskMagic) {
		return v, false
	}
	payload := raw[diskHeaderLen:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(raw[len(diskMagic):diskHeaderLen], sum[:]) {
		return v, false
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&v); err != nil {
		return diskVal{}, false
	}
	return v, true
}

// sameDiskVal compares two values bit for bit, so a NaN in a decoded
// series equals itself.
func sameDiskVal(a, b diskVal) bool {
	return a.Name == b.Name && slices.EqualFunc(a.Series, b.Series, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}
