package experiments

import (
	"runtime"
	"sync"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// ProgressEvent is one fan-out progress notification: Done of Total task
// units of the named experiment phase have completed. Total is fixed for
// the lifetime of a phase, so a reporter can derive completion percentage
// and an ETA from the event stream alone.
type ProgressEvent struct {
	// Phase labels the experiment fan-out (e.g. "fig7: timing sweep").
	Phase string
	// Done and Total count completed vs. scheduled task units.
	Done, Total int
}

// ProgressFunc receives fan-out progress events. The suite serializes
// calls, so implementations need no locking of their own.
type ProgressFunc func(ProgressEvent)

// workers resolves the suite's configured worker bound (0 = GOMAXPROCS).
func (s *Suite) workers() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// campaignWorkers bounds the fault.Campaign parallelism nested inside a
// suite-level task so the two levels multiply out to roughly GOMAXPROCS
// rather than oversubscribing it.
func (s *Suite) campaignWorkers() int {
	w := runtime.GOMAXPROCS(0) / s.workers()
	if w < 1 {
		w = 1
	}
	return w
}

// campaign builds a fault.Campaign with the suite's nested worker bound,
// telemetry registry, and cancellation context, so every experiment's
// campaigns report live outcome counters when the suite is observed and
// stop claiming runs once the suite's context is cancelled.
func (s *Suite) campaign(runs int, seed int64) fault.Campaign {
	return fault.Campaign{Runs: runs, Seed: seed, Workers: s.campaignWorkers(),
		Metrics: s.cfg.Telemetry, Context: s.ctx}
}

// runTasks executes n independent task units on at most s.workers()
// goroutines and reports completion progress to the suite's ProgressFunc.
// Task i writes its result into caller-owned slot i, so the caller
// assembles output in the same order as a serial loop would — parallel
// runs are bit-identical to serial ones as long as each task is itself
// deterministic. The first task error aborts the fan-out (in-flight tasks
// finish; queued ones are skipped) and is returned.
func (s *Suite) runTasks(phase string, n int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := s.workers()
	if workers > n {
		workers = n
	}

	// Telemetry (optional): per-phase task counters, a task-duration
	// histogram, and an in-flight gauge. The children are resolved once
	// here, outside the worker loop.
	var (
		tasksDone *telemetry.Counter
		taskSecs  *telemetry.Histogram
		inflight  *telemetry.Gauge
	)
	if reg := s.cfg.Telemetry; reg != nil {
		tasksDone = reg.CounterVec("dcrm_experiment_tasks_total",
			"Experiment fan-out task units completed, per phase.", "phase").With(phase)
		taskSecs = reg.HistogramVec("dcrm_experiment_task_seconds",
			"Experiment task-unit durations in seconds, per phase.", telemetry.DefBuckets, "phase").With(phase)
		inflight = reg.Gauge("dcrm_experiment_tasks_inflight",
			"Experiment task units currently executing.")
	}

	var (
		mu      sync.Mutex
		next    int
		done    int
		firstEr error
		wg      sync.WaitGroup
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		// Cancellation (the daemon's graceful shutdown) aborts between task
		// units: queued units are skipped and the fan-out returns ctx.Err().
		if firstEr == nil {
			if err := s.ctx.Err(); err != nil {
				firstEr = err
			}
		}
		if firstEr != nil || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	finish := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstEr == nil {
			firstEr = err
		}
		done++
		if s.cfg.Progress != nil {
			s.cfg.Progress(ProgressEvent{Phase: phase, Done: done, Total: n})
		}
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				var started time.Time
				if tasksDone != nil {
					inflight.Add(1)
					started = time.Now()
				}
				err := task(i)
				if tasksDone != nil {
					inflight.Add(-1)
					tasksDone.Inc()
					taskSecs.Observe(time.Since(started).Seconds())
				}
				finish(err)
			}
		}()
	}
	wg.Wait()
	return firstEr
}

// fanOut runs task for every index in [0, n) through runTasks and returns
// the results in index order, so output assembled from them is identical
// at any worker count.
func fanOut[T any](s *Suite, phase string, n int, task func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := s.runTasks(phase, n, func(i int) (err error) {
		out[i], err = task(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
