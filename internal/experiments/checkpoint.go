package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/kernels"
	"github.com/datacentric-gpu/dcrm/internal/mem"
	"github.com/datacentric-gpu/dcrm/internal/simt"
	"github.com/datacentric-gpu/dcrm/internal/store"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// Checkpoint is the reusable golden state of one (application, scheme,
// protected objects) campaign configuration: the post-input-load memory
// image with replicas allocated, the replication plan, the fault-free
// golden output and recording, and free-lists of reusable
// copy-on-write forks. Checkpoints are built once per configuration
// through the suite memo and shared by every campaign run — across fault
// models, across the Fig. 6/7/9 experiments, and across the public
// Workload API — so repeat campaigns skip application construction, plan
// building, the golden run, and the per-run image clone entirely.
type Checkpoint struct {
	// App is the configuration's private application instance (its memory
	// image includes the plan's replicas). Treat as read-only.
	App *kernels.App
	// Plan is the replication plan bound to App.Mem (nil when the
	// configuration is unprotected).
	Plan *core.Plan

	// The golden run is lazy: consumers that only need the prepared image
	// and plan (Fig. 7's overhead tasks, for example) never pay for it.
	// capture is its recording, which every batched claim replays against:
	// the golden artifact's launch-indexed warps, the application's one
	// recording, shared with every other checkpoint of the application.
	// The classifier's GoldenPost is set per claim, to the claim's image.
	goldenOnce sync.Once
	golden     []float32
	goldenErr  error
	classifier fault.Classifier
	capture    [][]*simt.WarpCapture

	// kits and scratches recycle the batched path's per-lane state (a fork
	// and its divergent-word set) and per-claim injection scratch. Unlike
	// sync.Pool, a free-list never drops an item on its own, so the
	// steady-state allocation count of a campaign is the same under every
	// runtime, the race detector included.
	kits      freeList[laneKit]
	scratches freeList[*fault.Scratch]

	// The exposure replay is lazy like the golden run: only miss-weighted
	// campaigns and timeline-consulting fault models (fault.NeedsTimeline)
	// pay for it. It yields both the miss selector and the timeline.
	exposureOnce sync.Once
	exposureErr  error
	missSel      fault.Selector
	missErr      error
	timeline     *fault.Timeline

	// Artifact-cache plumbing (see artifact.go): the owning suite (store +
	// identity), this configuration's key, the checkpoint's own memory-tier
	// key (for lazy-footprint re-accounting), and the accounted lazy bytes.
	suite     *Suite
	cfgKey    string
	storeKey  store.Key
	lazyBytes atomic.Int64

	tele checkpointTelemetry
}

// checkpointTelemetry holds the campaign fast-path counters (all nil when
// the suite is unobserved).
type checkpointTelemetry struct {
	forks  *telemetry.Counter
	copies *telemetry.Counter
	pruned *telemetry.Counter
	pre    *telemetry.Counter
	runs   *telemetry.Counter

	// Batched-path observability: claims executed, lanes per claim, runs
	// classified through group replay, warps actually executed vs.
	// reproduced by store application.
	batches       *telemetry.Counter
	occupancy     *telemetry.Histogram
	batchRuns     *telemetry.Counter
	replayedWarps *telemetry.Counter
	appliedWarps  *telemetry.Counter

	// Artifact-cache observability: first-use artifact requests per kind vs.
	// the requests that actually ran the computation — a warm process shows
	// requests with zero computes (the CI warm-start gate asserts this).
	artRequests *telemetry.CounterVec
	artComputed *telemetry.CounterVec
}

// Checkpoint returns the memoized campaign checkpoint for the named
// application protected at the given scheme and cumulative level: the
// checkpoint of the objects the level protects (levelObjects). Level 0,
// scheme None, or a level that reaches only writable objects is the
// unprotected baseline.
func (s *Suite) Checkpoint(name string, scheme core.Scheme, level int) (*Checkpoint, error) {
	app, err := s.App(name)
	if err != nil {
		return nil, err
	}
	return s.CheckpointForObjects(name, scheme, levelObjects(app, level))
}

// CheckpointForObjects returns the memoized campaign checkpoint protecting
// the named data objects, in the given priority order, under the scheme
// (the public API's AutoHotObjects flow, and every Checkpoint). It is
// keyed by the scheme and the object list, so one protection configuration
// has one checkpoint however it is named; scheme None or an empty list is
// the unprotected baseline.
func (s *Suite) CheckpointForObjects(name string, scheme core.Scheme, objectNames []string) (*Checkpoint, error) {
	if scheme == core.None || len(objectNames) == 0 {
		scheme, objectNames = core.None, nil
	}
	key := fmt.Sprintf("%s|%v|%s", name, scheme, strings.Join(objectNames, ","))
	if reg := s.cfg.Telemetry; reg != nil {
		reg.Counter("dcrm_checkpoint_requests_total",
			"Campaign checkpoint lookups (hits = requests - builds).").Inc()
	}
	// Checkpoints stay live objects (fork free-lists, reattached kernels) and
	// never persist as a whole; their lazy pieces persist individually as
	// artifacts (see artifact.go). The memory-tier size starts at the image
	// and is re-accounted upward as artifacts materialize (UpdateSize).
	storeKey := s.key("checkpoint").Field("cfg", key).Key()
	return store.Do(s.st, storeKey,
		store.Options[*Checkpoint]{Size: func(cp *Checkpoint) int64 {
			return cp.footprint()
		}},
		func() (*Checkpoint, error) {
			if reg := s.cfg.Telemetry; reg != nil {
				reg.Counter("dcrm_checkpoint_builds_total",
					"Campaign checkpoints built (app + plan; golden run deferred to first use).").Inc()
			}
			app, plan, err := s.buildPlan(name, scheme, objectNames)
			if err != nil {
				return nil, err
			}
			return s.newCheckpoint(app, plan, key, storeKey), nil
		})
}

func (s *Suite) newCheckpoint(app *kernels.App, plan *core.Plan, cfgKey string, storeKey store.Key) *Checkpoint {
	cp := &Checkpoint{
		App: app, Plan: plan,
		suite: s, cfgKey: cfgKey, storeKey: storeKey,
	}
	// Bound each free-list at what one campaign holds in flight: a full
	// claim of lanes, and one scratch, per processor.
	cp.kits.max = mem.BatchLanes * runtime.GOMAXPROCS(0)
	cp.scratches.max = runtime.GOMAXPROCS(0)
	if reg := s.cfg.Telemetry; reg != nil {
		cp.tele = checkpointTelemetry{
			forks: reg.Counter("dcrm_campaign_forks_total",
				"Copy-on-write campaign forks created (pool misses)."),
			copies: reg.Counter("dcrm_campaign_fork_block_copies_total",
				"128 B blocks materialized by campaign forks on first write."),
			pruned: reg.Counter("dcrm_campaign_runs_pruned_total",
				"Campaign runs classified Masked without execution (provably inert faults)."),
			pre: reg.Counter("dcrm_campaign_runs_preclassified_total",
				"Campaign runs classified at injection time (store-masked or ECC-preclassified faults), skipping execution."),
			runs: reg.Counter("dcrm_campaign_fork_runs_total",
				"Campaign runs executed on copy-on-write forks."),
			batches: reg.Counter("dcrm_campaign_batches_total",
				"Batched campaign claims executed (each claim replays up to 64 runs)."),
			occupancy: reg.Histogram("dcrm_campaign_batch_occupancy",
				"Lanes per batched claim that survived pruning into group replay.",
				[]float64{0, 1, 2, 4, 8, 16, 32, 48, 64}),
			batchRuns: reg.Counter("dcrm_campaign_batch_runs_total",
				"Campaign runs classified through the batched path's group replay."),
			replayedWarps: reg.Counter("dcrm_campaign_replayed_warps_total",
				"Warps executed for real during batched group replay."),
			appliedWarps: reg.Counter("dcrm_campaign_applied_warps_total",
				"Warps reproduced by applying recorded golden stores instead of executing."),
			artRequests: reg.CounterVec("dcrm_artifact_requests_total",
				"Checkpoint artifact first-use requests by kind.", "kind"),
			artComputed: reg.CounterVec("dcrm_artifact_computed_total",
				"Checkpoint artifact requests that ran the computation (misses in both store tiers) by kind.", "kind"),
		}
	}
	return cp
}

// ensureGolden materializes the golden artifact once — running and
// recording the fault-free execution, or fetching it from the store — and
// keeps the output the classifier compares against and the recording
// batched replay runs against. Both paths read the same pure-data
// artifact, so a warm start is bit-identical to a cold one. The store
// serves a disk entry only if it fits the application (checkGolden,
// against the base instance: the golden holds no replica); one that does
// not is recomputed once and overwritten.
func (cp *Checkpoint) ensureGolden() error {
	cp.goldenOnce.Do(func() {
		check := func(art goldenArtifact) error {
			base, err := cp.suite.App(cp.App.Name)
			if err != nil {
				return err
			}
			return checkGolden(base, art)
		}
		art, err := artifactDo(cp, ArtifactGolden, store.Options[goldenArtifact]{Size: goldenSize, Check: check},
			func() (goldenArtifact, error) { return computeGoldenArtifact(cp) })
		if err != nil {
			cp.goldenErr = err
			return
		}
		cp.golden = art.Output
		cp.classifier = fault.Classifier{
			Golden:    cp.golden,
			Metric:    cp.App.Metric,
			DetectErr: core.ErrFaultDetected,
		}
		cp.capture = art.Warps
	})
	return cp.goldenErr
}

// Golden returns the fault-free output under the application's metric,
// running the golden execution on first call.
func (cp *Checkpoint) Golden() ([]float32, error) {
	if err := cp.ensureGolden(); err != nil {
		return nil, err
	}
	return cp.golden, nil
}

// ensureExposure materializes the exposure artifact once — one timing
// replay of the configuration (replayExposure), or a store fetch of one
// that fits the image (checkExposure) — and rebuilds from it the
// miss-weighted selector and the store-commit timeline, shared across
// fault models and campaigns.
func (cp *Checkpoint) ensureExposure() error {
	cp.exposureOnce.Do(func() {
		nblocks := cp.App.Mem.TotalBlocks()
		check := func(art exposureArtifact) error { return checkExposure(art, nblocks) }
		art, err := artifactDo(cp, ArtifactMissWeights, store.Options[exposureArtifact]{Check: check},
			func() (exposureArtifact, error) {
				traces, err := cp.traces()
				if err != nil {
					return exposureArtifact{}, err
				}
				return replayExposure(cp.App, cp.Plan, traces)
			})
		if err != nil {
			cp.exposureErr = err
			return
		}
		cp.missSel, cp.missErr = art.selector(cp.App.Name)
		cp.timeline = &fault.Timeline{TotalCycles: art.TotalCycles,
			StoreBlocks: art.StoreBlocks, StoreCycles: art.StoreCycles}
		cp.addLazyBytes(exposureFootprint(art))
	})
	return cp.exposureErr
}

// MissSelector returns the checkpoint's Fig. 8 miss-weighted block
// selector.
func (cp *Checkpoint) MissSelector() (fault.Selector, error) {
	if err := cp.ensureExposure(); err != nil {
		return nil, err
	}
	return cp.missSel, cp.missErr
}

// Timeline returns the checkpoint's store-commit timeline, which the
// transient fault model consults on every run to decide whether a later
// store overwrites (masks) the injected flip.
func (cp *Checkpoint) Timeline() (*fault.Timeline, error) {
	if err := cp.ensureExposure(); err != nil {
		return nil, err
	}
	return cp.timeline, nil
}

// traces returns the kernel traces the checkpoint's timing replays consume:
// the suite's memoized capture of the application's base instance. A
// protected instance traces identically, because replicas are allocated
// after every primary object and no kernel addresses them
// (TestProtectedInstanceTracesMatchBase); the plan adds the replica
// traffic during the replay.
func (cp *Checkpoint) traces() ([]*simt.KernelTrace, error) {
	return cp.suite.Traces(cp.App.Name)
}

// freeList is a bounded, mutex-guarded stack of reusable items, the idiom
// the timing engine's event scheduler uses for its slab. Items put beyond
// the bound are left to the garbage collector.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
	max   int
}

// get pops a recycled item, reporting false when the list is empty.
func (l *freeList[T]) get() (item T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return item, false
	}
	item = l.items[n-1]
	var zero T
	l.items[n-1] = zero
	l.items = l.items[:n-1]
	return item, true
}

// put recycles an item unless the list already holds its bound.
func (l *freeList[T]) put(item T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) < l.max {
		l.items = append(l.items, item)
	}
}

// laneKit is one batched lane's reusable state: a copy-on-write fork of
// the checkpoint image and the lane's divergent-word set.
type laneKit struct {
	fork  *mem.Memory
	dirty *simt.DirtySet
}

// getKit takes a reset lane kit from the free-list or creates one; return
// it with cp.kits.put.
func (cp *Checkpoint) getKit() laneKit {
	if k, ok := cp.kits.get(); ok {
		k.fork.Reset()
		k.dirty.Reset()
		return k
	}
	if cp.tele.forks != nil {
		cp.tele.forks.Inc()
	}
	return laneKit{fork: cp.App.Mem.Fork(), dirty: simt.NewDirtySet(cp.App.Mem.TotalBlocks())}
}

// getScratch takes fault-injection scratch from the free-list or creates
// one; return it with cp.scratches.put. The scratch only buffers draws, so
// recycling it cannot change results.
func (cp *Checkpoint) getScratch() *fault.Scratch {
	if sc, ok := cp.scratches.get(); ok {
		return sc
	}
	return &fault.Scratch{}
}

// Campaign executes c against the checkpoint under the given fault model
// and block selector, in claims of up to mem.BatchLanes runs through
// RunBatch.
func (cp *Checkpoint) Campaign(c fault.Campaign, model fault.Model, sel fault.Selector) (fault.Result, error) {
	return cp.CampaignRange(c, 0, c.Runs, model, sel)
}

// CampaignRange executes only the run indices in [start, end) of c against
// the checkpoint, in claims like Campaign. Each run derives its random
// stream from (c.Seed, index) exactly like Campaign, so merging the results
// of every range of a partition with fault.Result.Add reproduces the full
// campaign's result byte for byte, however [0, c.Runs) is split. The parity
// tests split campaigns this way to vary the claim width.
func (cp *Checkpoint) CampaignRange(c fault.Campaign, start, end int, model fault.Model, sel fault.Selector) (fault.Result, error) {
	return c.ExecuteRangeBatched(start, end, func(_ int, rngs []*rand.Rand) ([]fault.Outcome, error) {
		return cp.RunBatch(rngs, model, sel)
	})
}
