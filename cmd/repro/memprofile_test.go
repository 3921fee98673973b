package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestMemProfileHoldsSuite: -memprofile snapshots the heap while the suite
// is still reachable, so the profile's in-use view holds what the run
// built — tens of megabytes for Fig. 3's access profiles — instead of
// only the runtime's own few hundred kilobytes.
func TestMemProfileHoldsSuite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.pprof")
	if code, _, stderr := repro(t, "-fig", "3", "-quiet", "-workers", "1", "-memprofile", path); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	const floor = 8 << 20
	if got := heapInUse(t, path); got < floor {
		t.Errorf("heap profile shows %d bytes in use, want at least %d: the snapshot missed the suite", got, floor)
	}
}

// heapInUse returns the inuse_space total of a gzipped pprof heap profile,
// decoding just the fields it needs of the profile.proto message:
// sample_type (1), sample (2) with its values (2), and string_table (6).
func heapInUse(t *testing.T, path string) int64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var types []uint64 // each sample type's name, as a string-table index
	var samples [][]int64
	var strs []string
	for _, f := range protoFields(t, data) {
		switch f.num {
		case 1:
			for _, g := range protoFields(t, f.bytes) {
				if g.num == 1 {
					types = append(types, g.varint)
				}
			}
		case 2:
			var vals []int64
			for _, g := range protoFields(t, f.bytes) {
				switch {
				case g.num != 2:
				case g.wire == 2: // packed
					for b := g.bytes; len(b) > 0; {
						v, n := binary.Uvarint(b)
						if n <= 0 {
							t.Fatal("heap profile: bad packed value")
						}
						vals = append(vals, int64(v))
						b = b[n:]
					}
				default:
					vals = append(vals, int64(g.varint))
				}
			}
			samples = append(samples, vals)
		case 6:
			strs = append(strs, string(f.bytes))
		}
	}
	for i, name := range types {
		if name >= uint64(len(strs)) || strs[name] != "inuse_space" {
			continue
		}
		var total int64
		for _, vals := range samples {
			if i < len(vals) {
				total += vals[i]
			}
		}
		return total
	}
	t.Fatalf("heap profile has no inuse_space sample type (types %v, strings %d)", types, len(strs))
	return 0
}

// protoField is one field of a protobuf message: a varint value or a
// length-delimited payload.
type protoField struct {
	num, wire int
	varint    uint64
	bytes     []byte
}

// protoFields splits a protobuf message into its fields.
func protoFields(t *testing.T, b []byte) []protoField {
	t.Helper()
	var out []protoField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			t.Fatal("heap profile: bad field key")
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.varint, n = binary.Uvarint(b); n <= 0 {
				t.Fatal("heap profile: bad varint")
			}
			b = b[n:]
		case 1:
			b = b[min(8, len(b)):]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				t.Fatal("heap profile: bad length")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			b = b[min(4, len(b)):]
		default:
			t.Fatalf("heap profile: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out
}
