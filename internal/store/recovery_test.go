package store

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// TestCorruptEntryRecoveredOnceUnderConcurrentReaders is the disk tier's
// recovery contract under load: when many readers hit a corrupt persisted
// entry at once, the singleflight front funnels them into one flight — the
// damaged file is deleted and the value recomputed exactly once, every
// reader gets the recomputed value, and the disk file is healed. Run under
// -race (the CI store gate does) this also proves the delete/recompute/
// rewrite sequence is free of data races.
func TestCorruptEntryRecoveredOnceUnderConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	k := NewKey("t").Field("x", 1).Key()
	want := diskVal{Name: "healed", Series: []float64{1, 2.5, -3}}

	// Persist a good entry, then flip a payload bit on disk — the torn-write
	// case the checksum exists for.
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Do(s1, k, Options[diskVal]{Persist: true}, func() (diskVal, error) {
		return want, nil
	}); err != nil {
		t.Fatal(err)
	}
	path := s1.disk.path(k.Hash())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory (empty memory tier, like a
	// restarted daemon) takes 16 concurrent readers straight to disk.
	reg := telemetry.NewRegistry()
	s2, err := Open(Config{Dir: dir, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	const readers = 16
	var (
		computes atomic.Int64
		start    = make(chan struct{})
		wg       sync.WaitGroup
		results  [readers]diskVal
		errs     [readers]error
	)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i], errs[i] = Do(s2, k, Options[diskVal]{Persist: true},
				func() (diskVal, error) {
					computes.Add(1)
					return want, nil
				})
		}()
	}
	close(start)
	wg.Wait()

	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if results[i].Name != want.Name || len(results[i].Series) != len(want.Series) {
			t.Fatalf("reader %d got %+v, want %+v", i, results[i], want)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("corrupt entry recomputed %d times across %d readers, want exactly 1", n, readers)
	}
	if c := counterValue(t, reg, "dcrm_store_disk_corrupt_total"); c != 1 {
		t.Errorf("dcrm_store_disk_corrupt_total = %v, want 1", c)
	}

	// The recompute's write-back healed the file: a third store reads it
	// from disk cleanly, no corruption, no compute.
	s3, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Do(s3, k, Options[diskVal]{Persist: true}, func() (diskVal, error) {
		t.Error("healed entry recomputed")
		return diskVal{}, nil
	})
	if err != nil || got.Name != want.Name {
		t.Fatalf("healed entry read back %+v, %v", got, err)
	}
}

// TestCheckRejectedEntryRecoveredOnceUnderConcurrentReaders: a persisted
// entry whose checksum holds but which Options.Check rejects is handled
// like a corrupt one. Many concurrent readers of a fresh store share one
// recompute, all get the fresh value, the rejection is counted once, and
// the fresh value overwrites the entry, so a third store serves it from
// disk, past the same check, without computing.
func TestCheckRejectedEntryRecoveredOnceUnderConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	k := NewKey("t").Field("x", 1).Key()
	want := diskVal{Name: "healed", Series: []float64{1, 2.5, -3}}
	opt := Options[diskVal]{Persist: true, Check: func(v diskVal) error {
		if v.Name != want.Name {
			return fmt.Errorf("entry %q does not fit", v.Name)
		}
		return nil
	}}

	// A process without the check persists a well-formed but unfit value.
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Do(s1, k, Options[diskVal]{Persist: true}, func() (diskVal, error) {
		return diskVal{Name: "unfit", Series: []float64{4}}, nil
	}); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	s2, err := Open(Config{Dir: dir, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	const readers = 16
	var (
		computes atomic.Int64
		start    = make(chan struct{})
		wg       sync.WaitGroup
		results  [readers]diskVal
		errs     [readers]error
	)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i], errs[i] = Do(s2, k, opt, func() (diskVal, error) {
				computes.Add(1)
				return want, nil
			})
		}()
	}
	close(start)
	wg.Wait()

	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if results[i].Name != want.Name {
			t.Fatalf("reader %d got %+v, want %+v", i, results[i], want)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("rejected entry recomputed %d times across %d readers, want exactly 1", n, readers)
	}
	if c := counterValue(t, reg, "dcrm_store_disk_corrupt_total"); c != 1 {
		t.Errorf("dcrm_store_disk_corrupt_total = %v, want 1", c)
	}

	s3, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Do(s3, k, opt, func() (diskVal, error) {
		t.Error("overwritten entry recomputed")
		return diskVal{}, nil
	})
	if err != nil || got.Name != want.Name {
		t.Fatalf("overwritten entry read back %+v, %v", got, err)
	}
}
