package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// benchColdSeed hands every cold-path iteration a never-before-seen seed.
// Package-level and never reset, so testing's b.N escalation re-runs stay
// cold too.
var benchColdSeed atomic.Int64

func init() { benchColdSeed.Store(100_000) }

// benchPostAndWait submits a campaign and polls it to completion, failing
// the benchmark on any non-202 or failed job. This is one "serve": what a
// client pays end to end.
func benchPostAndWait(b *testing.B, url, body string) {
	b.Helper()
	resp, err := http.Post(url+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var j job
	err = json.NewDecoder(resp.Body).Decode(&j)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		b.Fatalf("POST = %d (%v)", resp.StatusCode, err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		gresp, err := http.Get(url + "/v1/campaigns/" + j.ID)
		if err != nil {
			b.Fatal(err)
		}
		err = json.NewDecoder(gresp.Body).Decode(&j)
		gresp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if j.State == stateDone {
			return
		}
		if j.State == stateFailed {
			b.Fatalf("campaign failed: %s", j.Error)
		}
		if time.Now().After(deadline) {
			b.Fatalf("campaign stuck in state %q", j.State)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func fig6Body(seed int64) string {
	return fmt.Sprintf(`{"kind":"fig6","apps":["P-BICG"],"runs":6,"seed":%d}`, seed)
}

// BenchmarkDcrmdHotServe measures the daemon's end-to-end campaign serving
// throughput over one HTTP server and one shared in-memory result store:
//
//   - cold: every request carries a fresh seed, so the fault campaign
//     really runs (store misses on the figure key).
//   - warm: every request repeats one already-computed seed, so the daemon
//     answers from the result store — the serving fast path. The
//     cold/warm ratio is the store's speedup; scripts/bench_compare.sh
//     warns below 10×.
//   - dup: parallel clients hammer one seed that was never precomputed;
//     the first wave coalesces onto one run (job-level and store-level
//     singleflight), the rest are store hits.
func BenchmarkDcrmdHotServe(b *testing.B) {
	reg := telemetry.NewRegistry()
	r := newRunner(experiments.SuiteConfig{NNTrainSamples: 60, Workers: 2}, reg, 1<<20)
	srv := httptest.NewServer(newMux(r, reg, false))
	b.Cleanup(func() {
		srv.Close()
		r.wait()
	})

	// Prime outside any timed region: suite construction (NN training) and
	// the shared per-app artifacts (profile, golden, checkpoint), so cold
	// measures campaign compute rather than one-time setup.
	benchPostAndWait(b, srv.URL, fig6Body(99_999))

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchPostAndWait(b, srv.URL, fig6Body(benchColdSeed.Add(1)))
		}
	})

	const warmSeed = 77_001
	benchPostAndWait(b, srv.URL, fig6Body(warmSeed)) // compute once
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchPostAndWait(b, srv.URL, fig6Body(warmSeed))
		}
	})

	const dupSeed = 88_001 // deliberately not precomputed
	b.Run("dup", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				benchPostAndWait(b, srv.URL, fig6Body(dupSeed))
			}
		})
	})
}
