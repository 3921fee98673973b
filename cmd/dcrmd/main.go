// Command dcrmd is a monitoring daemon in the style of gpud: it runs
// fault-injection campaigns and performance sweeps in the background and
// exposes their progress and results over HTTP, so a long campaign can be
// watched from another terminal (or scraped by Prometheus) instead of
// holding a foreground process hostage.
//
// Endpoints:
//
//	GET  /healthz            component health (suite, jobs)
//	GET  /metrics            Prometheus text format: live campaign/engine counters
//	GET  /v1/experiments     submitted jobs and their states
//	POST /v1/campaigns       start a campaign: {"kind":"fig6","runs":200,"apps":["P-BICG"]}
//	GET  /v1/campaigns/{id}  one job, JSON result included once done
//
// Campaign kinds are fig6, fig7, fig9, and breakdown (the fault-model ×
// scheme outcome breakdown; accepts "models": a list of fault-model specs
// such as "transient:flips=2" — see docs/FAULT-MODELS.md).
//
// Usage:
//
//	dcrmd [-addr :8080] [-workers 0] [-scale small] [-store-dir DIR] [-max-inflight N]
//
// With -store-dir, results persist in a content-addressed disk store:
// repeat campaigns over the same inputs are served from it, and restarts
// warm-start from earlier runs. Identical concurrent submissions coalesce
// onto one job; distinct submissions beyond -max-inflight are rejected
// with HTTP 429 and a Retry-After header.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/store"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
	"github.com/datacentric-gpu/dcrm/internal/version"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dcrmd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "experiment fan-out goroutines (0 = GOMAXPROCS); results are identical at any count")
	scale := flag.String("scale", "small", "workload input scale: small, medium, large")
	storeDir := flag.String("store-dir", "", "persist results in a content-addressed store at this directory (created if missing); empty = in-memory only")
	maxInflight := flag.Int("max-inflight", 0, "maximum concurrently live campaign jobs before submissions get 429 (0 = 2×GOMAXPROCS)")
	pprofFlag := flag.Bool("pprof", false, "serve Go runtime profiling under /debug/pprof (off by default: exposes stacks and heap contents)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return nil
	}

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		return err
	}
	cfg := experiments.SuiteConfig{Workers: *workers, Scale: sc}

	reg := telemetry.NewRegistry()
	if *storeDir != "" {
		st, err := store.Open(store.Config{Dir: *storeDir, Telemetry: reg})
		if err != nil {
			return err
		}
		cfg.Store = st
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// In-flight campaign jobs run under jobsCtx so shutdown can abort them:
	// fan-outs stop claiming task units and campaigns stop claiming runs the
	// moment it is cancelled, instead of holding the process until every
	// submitted figure completes.
	jobsCtx, jobsCancel := context.WithCancel(context.Background())
	defer jobsCancel()
	cfg.Context = jobsCtx

	runner := newRunner(cfg, reg, *maxInflight)
	srv := &http.Server{Addr: *addr, Handler: newMux(runner, reg, *pprofFlag)}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "dcrmd: listening on %s\n", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting requests, cancel in-flight campaign
	// jobs through the suite context, then wait for the job goroutines to
	// observe the cancellation and record their final states.
	fmt.Fprintln(os.Stderr, "dcrmd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	jobsCancel()
	runner.wait()
	return nil
}
