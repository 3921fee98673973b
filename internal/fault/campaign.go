package fault

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"github.com/datacentric-gpu/dcrm/internal/mem"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// Outcome classifies one fault-injected application run.
type Outcome int

// Run outcomes.
const (
	// Masked: the output matched the fault-free baseline within the
	// application's error threshold (includes runs repaired by correction).
	Masked Outcome = iota + 1
	// SDC: silent data corruption — the output deviated past the threshold
	// with no error signalled.
	SDC
	// Detected: the detection scheme terminated the run (a DUE, not an SDC).
	Detected
	// Crashed: the run failed for another reason (e.g. a fault-induced
	// out-of-bounds access).
	Crashed
	// DUE: detected uncorrectable error — ECC or a duplication scheme saw
	// the corruption but could not repair it, so the run aborted rather
	// than producing (possibly wrong) output. Distinct from Detected,
	// where the protection scheme terminates cleanly by design, and from
	// SDC, where nothing signalled at all.
	DUE
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case SDC:
		return "sdc"
	case Detected:
		return "detected"
	case Crashed:
		return "crashed"
	case DUE:
		return "due"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Outcomes lists every outcome in canonical presentation order — the
// order telemetry labels, CSV columns, and report tables share. Exporters
// iterate this slice (never a map), which is what keeps column order
// deterministic across runs.
func Outcomes() []Outcome {
	return []Outcome{Masked, SDC, Detected, Crashed, DUE}
}

// RunFunc executes one fault-injected run. Implementations clone the golden
// memory image, inject faults with the provided rng, execute the
// application functionally, and classify the output. It must be safe for
// concurrent invocation.
type RunFunc func(runIdx int, rng *rand.Rand) (Outcome, error)

// BatchRunFunc executes a contiguous claim of runs [start, start+len(rngs))
// in one call, returning exactly one Outcome per run in index order. A
// claim holds at most mem.BatchLanes runs — the width of one bit-parallel
// classification sweep. rngs[i] is the same (Seed, start+i)-derived stream
// RunFunc would receive for the run, so an executor that consumes each rng
// only for its own run's injection classifies every run exactly as a
// one-run-at-a-time executor would. It must be safe for concurrent
// invocation.
type BatchRunFunc func(start int, rngs []*rand.Rand) ([]Outcome, error)

// Campaign executes many independent fault-injection runs.
type Campaign struct {
	// Runs is the experiment count (the paper uses 1000 for 95% confidence
	// with ±3% error margins).
	Runs int
	// Seed makes the campaign reproducible: run i uses an rng derived from
	// (Seed, i), so results are independent of worker scheduling.
	Seed int64
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, receives live outcome counters
	// (dcrm_fault_runs_total{outcome=...}) and the run-granular
	// dcrm_campaign_runs_total as runs complete, so a long campaign can be
	// watched over a /metrics endpoint. Both count runs, never batches.
	// Observation only: attaching a registry does not change campaign
	// results.
	Metrics *telemetry.Registry
	// Context, when non-nil, cancels the campaign between runs: once it is
	// done no further runs start (in-flight runs finish) and Execute returns
	// the context's error. Nil means the campaign always runs to completion.
	Context context.Context
}

// Result aggregates campaign outcomes.
type Result struct {
	// Runs is the number executed.
	Runs int
	// Counts per outcome.
	MaskedRuns   int
	SDCRuns      int
	DetectedRuns int
	CrashedRuns  int
	DUERuns      int
}

// Count returns the tally for one outcome (0 for invalid outcomes).
func (r Result) Count(o Outcome) int {
	switch o {
	case Masked:
		return r.MaskedRuns
	case SDC:
		return r.SDCRuns
	case Detected:
		return r.DetectedRuns
	case Crashed:
		return r.CrashedRuns
	case DUE:
		return r.DUERuns
	}
	return 0
}

// Add accumulates another result into r, such as the counts of one
// run-index range of a split campaign. Because every run's outcome is a
// pure function of (seed, run index), merging the results of any disjoint
// run-index ranges covering [0, Runs) reproduces the whole campaign's
// result exactly.
func (r *Result) Add(o Result) {
	r.Runs += o.Runs
	r.MaskedRuns += o.MaskedRuns
	r.SDCRuns += o.SDCRuns
	r.DetectedRuns += o.DetectedRuns
	r.CrashedRuns += o.CrashedRuns
	r.DUERuns += o.DUERuns
}

// SDCRate returns the fraction of runs that produced silent data
// corruption.
func (r Result) SDCRate() float64 {
	if r.Runs == 0 {
		return 0
	}
	return float64(r.SDCRuns) / float64(r.Runs)
}

// ConfidenceHalfWidth returns the 95% normal-approximation half-width of
// the SDC rate estimate — the ±3% the paper cites at 1000 runs.
func (r Result) ConfidenceHalfWidth() float64 {
	if r.Runs == 0 {
		return 0
	}
	p := r.SDCRate()
	return 1.96 * math.Sqrt(p*(1-p)/float64(r.Runs))
}

// Execute runs the campaign, fanning runs across workers one run per
// claim. The first run error aborts the campaign.
func (c Campaign) Execute(run RunFunc) (Result, error) {
	if run == nil {
		return Result{}, fmt.Errorf("fault: nil run function")
	}
	return c.executeRange(0, c.Runs, 1, func(lo int, rngs []*rand.Rand) ([]Outcome, error) {
		o, err := run(lo, rngs[0])
		if err != nil {
			return nil, err
		}
		return []Outcome{o}, nil
	})
}

// runSeed derives run i's rng seed deterministically from (Seed, i).
func (c Campaign) runSeed(i int) int64 {
	const mix = int64(-0x61C8864680B583EB) // golden-ratio multiplier
	return c.Seed ^ (int64(i)+1)*mix
}

// ExecuteRangeBatched runs only the run indices in [start, end) of the
// campaign with a batched executor: workers claim contiguous chunks of up
// to mem.BatchLanes runs and hand each chunk to run in one call. Chunk
// boundaries depend only on (start, end), never on worker scheduling, and
// every run's random stream is derived from (Seed, run index) exactly as
// Execute derives it. So results stay byte-identical across worker counts,
// and executing any partition of [0, Runs) range by range and merging the
// results with Result.Add reproduces the whole campaign. The returned
// Result counts only the range's runs.
func (c Campaign) ExecuteRangeBatched(start, end int, run BatchRunFunc) (Result, error) {
	if run == nil {
		return Result{}, fmt.Errorf("fault: nil batch run function")
	}
	return c.executeRange(start, end, mem.BatchLanes, run)
}

// executeRange is the shared chunk-claiming executor behind Execute
// (batch 1) and ExecuteRangeBatched.
func (c Campaign) executeRange(start, end, batch int, run BatchRunFunc) (Result, error) {
	if c.Runs <= 0 {
		return Result{}, fmt.Errorf("fault: campaign needs a positive run count, got %d", c.Runs)
	}
	if start < 0 || end > c.Runs || start >= end {
		return Result{}, fmt.Errorf("fault: run range [%d, %d) outside campaign of %d runs", start, end, c.Runs)
	}
	n := end - start
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if maxClaims := (n + batch - 1) / batch; workers > maxClaims {
		workers = maxClaims
	}

	var (
		mu      sync.Mutex
		res     = Result{Runs: n}
		firstEr error
		next    = start
		wg      sync.WaitGroup
	)
	claim := func() (int, int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstEr == nil && c.Context != nil {
			if err := c.Context.Err(); err != nil {
				firstEr = err
			}
		}
		if firstEr != nil || next >= end {
			return 0, 0, false
		}
		lo := next
		hi := lo + batch
		if hi > end {
			hi = end
		}
		next = hi
		return lo, hi, true
	}
	var outcomes *telemetry.CounterVec
	var runsTotal *telemetry.Counter
	if c.Metrics != nil {
		outcomes = c.Metrics.CounterVec("dcrm_fault_runs_total",
			"Fault-injection runs completed, by outcome.", "outcome")
		runsTotal = c.Metrics.Counter("dcrm_campaign_runs_total",
			"Campaign runs completed — counted per run on both the batched and unbatched paths.")
	}
	// record tallies one completed run (or the error that aborted a claim).
	// The run counters advance run-by-run even when the claim executed as
	// one batch.
	record := func(o Outcome, err error) {
		if err == nil && o >= Masked && o <= DUE {
			if outcomes != nil {
				outcomes.With(o.String()).Inc()
			}
			if runsTotal != nil {
				runsTotal.Inc()
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstEr == nil {
				firstEr = err
			}
			return
		}
		switch o {
		case Masked:
			res.MaskedRuns++
		case SDC:
			res.SDCRuns++
		case Detected:
			res.DetectedRuns++
		case Crashed:
			res.CrashedRuns++
		case DUE:
			res.DUERuns++
		default:
			if firstEr == nil {
				firstEr = fmt.Errorf("fault: run returned invalid outcome %d", int(o))
			}
			return
		}
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			// Each worker owns a pool of batch rngs: a fresh one starts at
			// its run's seed, and a recycled one is reseeded per claim.
			// (*rand.Rand).Seed resets the source to the exact state a fresh
			// rand.New(rand.NewSource(seed)) starts in, so reuse changes
			// nothing about any run's stream while dropping the two
			// allocations per run the fresh construction paid.
			rngs := make([]*rand.Rand, 0, batch)
			for {
				lo, hi, ok := claim()
				if !ok {
					wg.Done()
					return
				}
				n := hi - lo
				for i := range min(n, len(rngs)) {
					rngs[i].Seed(c.runSeed(lo + i))
				}
				for i := len(rngs); i < n; i++ {
					rngs = append(rngs, rand.New(rand.NewSource(c.runSeed(lo+i))))
				}
				os, err := run(lo, rngs[:n])
				if err == nil && len(os) != hi-lo {
					err = fmt.Errorf("fault: batch run [%d, %d) returned %d outcomes, want %d",
						lo, hi, len(os), hi-lo)
				}
				if err != nil {
					record(0, err)
					continue
				}
				for _, o := range os {
					record(o, nil)
				}
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return Result{}, firstEr
	}
	return res, nil
}
