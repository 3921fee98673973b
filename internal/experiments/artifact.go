// Checkpoint artifact cache: the lazy pieces of a campaign Checkpoint — the
// golden run (output and the reference recording batched replay uses) and
// the exposure replay (the miss-selector weights and the store-commit
// timeline) — factored into individually keyed, serializable artifacts
// served through the suite's content-addressed store. Each artifact is
// keyed by the suite identity, its kind, artifactFormatVersion (so
// encodings never alias across format changes), and what it depends on: the
// golden by application alone, because a protected instance runs and
// records exactly what its base instance does (its replicas are allocated
// after every primary object and no kernel addresses them); the exposure
// replay by checkpoint configuration, because the plan's replica traffic
// changes it. An artifact is built in one way only: on first use, by
// whichever figure or campaign needs it, with the store's singleflight
// making concurrent first users share one computation. Artifacts persist
// through the store's checksummed disk tier: a second process, or a peer
// sharing the store directory, fetches instead of recomputing. Corrupt disk
// entries, and decoded entries that do not fit the checkpoint (checkGolden,
// checkExposure), are recomputed transparently and overwritten.
//
// Byte-identity contract: both the freshly-computed and the decoded paths
// reconstruct the live checkpoint state from the same pure-data artifact
// value (the recording is the artifact's own per-launch arenas, which
// persist as their little-endian bytes; selectors and timelines are
// rebuilt from the exposure replay's sorted slices), so a warm start is
// bit-identical to a cold one by construction — the parity tests gate on
// exactly that.
package experiments

import (
	"fmt"
	"math"
	"slices"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/kernels"
	"github.com/datacentric-gpu/dcrm/internal/simt"
	"github.com/datacentric-gpu/dcrm/internal/store"
)

// artifactFormatVersion is folded into every artifact key. Bump it whenever
// any artifact encoding changes shape or meaning: old disk entries then
// simply stop being addressed, rather than decoding into the wrong state.
const artifactFormatVersion = 6

// Artifact kinds — the nodes of the checkpoint artifact DAG. Both hang off
// the checkpoint's prepared image (app + plan); neither depends on the
// other.
const (
	// ArtifactGolden is the fault-free reference run, one per application:
	// the metric output and the recording batched replay uses.
	ArtifactGolden = "golden"
	// ArtifactCapture names the golden run's recording. No store entry has
	// this kind: BuildArtifact accepts it as a synonym for ArtifactGolden.
	ArtifactCapture = "capture"
	// ArtifactMissWeights is the exposure replay of one configuration: the
	// Fig. 8 miss histogram behind the miss-weighted block selector and
	// the store-commit timeline that timeline-consulting fault models read
	// (fault.NeedsTimeline).
	ArtifactMissWeights = "missweights"
)

// goldenArtifact is the serialized golden run: the metric output and the
// recording of each kernel launch, which every campaign run replays
// against at every scale (the post-run image is the claim's shared image
// after the last recorded warp, so the artifact carries none). Each
// launch's arenas encode as raw little-endian bytes (simt.Arena), so gob
// copies the recording rather than walking it. Bytes is the recording's
// simt.CaptureLog.ApproxBytes: every checkpoint of the application shares
// the recording, so the artifact's store entry is charged for it once, at
// this size.
type goldenArtifact struct {
	Output   []float32
	Bytes    int64
	Launches []simt.Launch
}

// exposureArtifact is the serialized exposure replay (replayExposure): the
// missed blocks with their miss counts as weights, the replay's span, and
// the stored-to blocks with their last store-commit cycles. Sorted
// parallel slices, not maps, keep the encoding deterministic.
type exposureArtifact struct {
	Blocks      []arch.BlockAddr
	Weights     []float64
	TotalCycles int64
	StoreBlocks []arch.BlockAddr
	StoreCycles []int64
}

// selector builds the miss-weighted block selector.
func (art exposureArtifact) selector(app string) (fault.Selector, error) {
	if len(art.Blocks) == 0 {
		return nil, fmt.Errorf("experiments: %s produced no L1 misses", app)
	}
	return fault.NewWeightedSelector(art.Blocks, art.Weights)
}

// artifactKey addresses one artifact of this checkpoint: suite identity
// (version, GPU config, seed, scale) + format version + kind + the
// application for the golden, the checkpoint configuration key for the
// others.
func (cp *Checkpoint) artifactKey(kind string) store.Key {
	k := cp.suite.key("artifact").Field("v", artifactFormatVersion).Field("kind", kind)
	if kind == ArtifactGolden {
		return k.Field("app", cp.App.Name).Key()
	}
	return k.Field("cfg", cp.cfgKey).Key()
}

// artifactDo serves one artifact through the suite store: memory tier,
// then checksummed disk tier, then compute — computed at most once among
// concurrent callers by the store's singleflight. Telemetry:
// dcrm_artifact_requests_total counts first-use requests per kind,
// dcrm_artifact_computed_total counts the requests that actually ran the
// computation — a fully warm process shows requests with zero computes.
// opt sets the store entry's accounted size and the check a disk-served
// value must pass; the entry always persists. (A free function because Go
// methods cannot be generic.)
func artifactDo[T any](cp *Checkpoint, kind string, opt store.Options[T], compute func() (T, error)) (T, error) {
	if cp.tele.artRequests != nil {
		cp.tele.artRequests.With(kind).Inc()
	}
	counted := func() (T, error) {
		if cp.tele.artComputed != nil {
			cp.tele.artComputed.With(kind).Inc()
		}
		return compute()
	}
	opt.Persist = true
	return store.Do(cp.suite.st, cp.artifactKey(kind), opt, counted)
}

// computeGoldenArtifact runs the fault-free golden execution once, on a
// throwaway fork, recording every warp's loads and stores as it goes, and
// keeps its output and recording. Replicas are fault-free here, so the
// golden run skips the scheme overlay, and every instance of the
// application yields the same artifact
// (TestProtectedInstanceCapturesMatchBase): the one recording serves every
// configuration of the application.
func computeGoldenArtifact(cp *Checkpoint) (goldenArtifact, error) {
	f := cp.App.Mem.Fork()
	log, err := cp.App.CaptureRun(f)
	if err != nil {
		return goldenArtifact{}, fmt.Errorf("experiments: %s golden run: %w", cp.App.Name, err)
	}
	return goldenArtifact{Output: cp.App.Output(f), Bytes: log.ApproxBytes(), Launches: log.Launches}, nil
}

// checkGolden verifies a golden artifact against the application it claims
// to describe, before the checkpoint classifies against its output and
// replays its recording: the output as long as the application's, and the
// recording (checkRecording). The store's checksum only proves the payload
// is the one written; this proves it fits the application.
func checkGolden(app *kernels.App, art goldenArtifact) error {
	if n := len(app.Output(app.Mem)); len(art.Output) != n {
		return fmt.Errorf("output of %d values, the application's has %d", len(art.Output), n)
	}
	return checkRecording(app, art.Launches)
}

// checkRecording verifies a golden artifact's recording against the
// application it claims to record, before batched replay indexes buffers,
// blocks, arenas and lanes with its fields: the launch count and each
// launch's warp count; every warp's spans inside their arenas and its
// footprint's blocks; every load's and store's kind, data object, blocks,
// lane count (at most the warp's, which the launch geometry gives) and
// every offset and count inside its arena; and every store index inside
// its buffer. A golden without a recording is rejected.
func checkRecording(app *kernels.App, launches []simt.Launch) error {
	if len(launches) != len(app.Kernels) {
		return fmt.Errorf("%d launches recorded, the application has %d", len(launches), len(app.Kernels))
	}
	bufs, nblocks := app.Mem.Buffers(), arch.BlockAddr(app.Mem.TotalBlocks())
	// inside reports whether n elements from off lie in an arena of size
	// elements, with every offset in 32 bits.
	inside := func(off, n uint32, size int) bool {
		return uint64(off)+uint64(n) <= min(uint64(size), math.MaxUint32)
	}
	var idx [arch.WarpSize]int32
	for ki := range launches {
		l, k := &launches[ki], app.Kernels[ki]
		if len(l.Warps) != k.TotalWarps() {
			return fmt.Errorf("launch %d: %d warps recorded, the launch has %d", ki, len(l.Warps), k.TotalWarps())
		}
		// blocks reports whether a span of Blocks exists in the image.
		blocks := func(off, n uint32) bool {
			return inside(off, n, len(l.Blocks)) && !slices.ContainsFunc(l.Blocks[off:off+n],
				func(b arch.BlockAddr) bool { return b >= nblocks })
		}
		// fits reports whether an access of a warp of lanes lanes fits the
		// application and its arenas; only loads broadcast.
		fits := func(a *simt.Access, lanes int, load bool) bool {
			if a.BufID < 0 || int(a.BufID) >= len(bufs) || !blocks(a.Block, uint32(a.NBlocks)) ||
				!inside(a.Val, uint32(a.Values()), len(l.Vals)) {
				return false
			}
			switch a.Kind {
			case simt.Affine:
				return int(a.Lanes) <= lanes
			case simt.Gather:
				return int(a.Lanes) <= lanes && inside(uint32(a.Base), uint32(a.Lanes), len(l.Idx))
			}
			return a.Kind == simt.Broadcast && load
		}
		for g := range l.Warps {
			r := &l.Warps[g]
			if !inside(r.Loads.Off, r.Loads.Len, len(l.Loads)) || !inside(r.Stores.Off, r.Stores.Len, len(l.Stores)) ||
				!blocks(r.Footprint.Off, r.Footprint.Len) {
				return fmt.Errorf("launch %d warp %d does not fit the launch", ki, g)
			}
			_, wi := k.WarpAt(g)
			lanes, w := k.WarpLanes(wi), l.Warp(g)
			for i := range w.Loads {
				if !fits(&w.Loads[i], lanes, true) {
					return fmt.Errorf("launch %d warp %d load %d does not fit the application", ki, g, i)
				}
			}
			for i := range w.Stores {
				st := &w.Stores[i]
				if !fits(st, lanes, false) {
					return fmt.Errorf("launch %d warp %d store %d does not fit the application", ki, g, i)
				}
				for _, x := range w.Index(st, &idx) {
					if x != simt.InactiveLane && (x < 0 || int(x) >= bufs[st.BufID].Len4()) {
						return fmt.Errorf("launch %d warp %d store %d: index %d outside %q", ki, g, i, x, bufs[st.BufID].Name)
					}
				}
			}
		}
	}
	return nil
}

// checkExposure verifies an exposure artifact against the checkpoint image
// of nblocks blocks, before the selector draws from its weights and the
// transient model reads its cycles: each block list strictly ascending
// inside the image with one value per block, every weight positive and
// finite, every cycle inside the replay's span of at least one cycle.
func checkExposure(art exposureArtifact, nblocks int) error {
	ascending := func(blocks []arch.BlockAddr) bool {
		for i, b := range blocks {
			if int(b) >= nblocks || i > 0 && b <= blocks[i-1] {
				return false
			}
		}
		return true
	}
	if art.TotalCycles < 1 || !ascending(art.Blocks) || !ascending(art.StoreBlocks) ||
		len(art.Weights) != len(art.Blocks) || len(art.StoreCycles) != len(art.StoreBlocks) {
		return fmt.Errorf("exposure replay does not fit the %d-block image", nblocks)
	}
	for _, w := range art.Weights {
		if !(w > 0) || math.IsInf(w, 1) {
			return fmt.Errorf("miss weight %v", w)
		}
	}
	for _, c := range art.StoreCycles {
		if c < 0 || c > art.TotalCycles {
			return fmt.Errorf("store commit at cycle %d, outside the %d-cycle replay", c, art.TotalCycles)
		}
	}
	return nil
}

// goldenSize is the golden artifact's store-entry size: its output plus the
// recording. Every checkpoint of the application shares both, so the entry
// is charged once and no checkpoint re-accounts them.
func goldenSize(art goldenArtifact) int64 {
	return int64(len(art.Output))*4 + art.Bytes
}

// exposureFootprint is the exposure artifact's share of the checkpoint LRU
// re-accounting: the memory tier admits a checkpoint at its image size,
// then grows the accounted size as the rebuilt selector and timeline
// materialize.
func exposureFootprint(art exposureArtifact) int64 {
	// the rebuilt selector's blocks and cumulative weights, plus the
	// store-commit slices the timeline keeps reachable (a block and a
	// cycle per entry); the artifact value itself is accounted under its
	// own store key
	return int64(len(art.Blocks))*(4+8) + 16 + int64(len(art.StoreBlocks))*(4+8)
}

// addLazyBytes grows the checkpoint's accounted footprint after an artifact
// materializes and re-accounts the entry in the suite store's memory tier,
// so the LRU byte budget tracks warm checkpoints instead of just their
// images.
func (cp *Checkpoint) addLazyBytes(n int64) {
	if n <= 0 {
		return
	}
	cp.suite.st.UpdateSize(cp.storeKey, cp.lazyBytes.Add(n)+int64(cp.App.Mem.Size()))
}

// footprint is the checkpoint's current accounted size: prepared image plus
// every lazy artifact materialized so far.
func (cp *Checkpoint) footprint() int64 {
	return int64(cp.App.Mem.Size()) + cp.lazyBytes.Load()
}

// BuildArtifact forces one artifact kind to exist — computing it, or
// fetching it from the store's memory or disk tier — through the same
// first-use path a campaign takes, and surfaces its build error.
// ArtifactCapture builds the golden artifact, which carries the recording.
func (cp *Checkpoint) BuildArtifact(kind string) error {
	switch kind {
	case ArtifactGolden, ArtifactCapture:
		return cp.ensureGolden()
	case ArtifactMissWeights:
		return cp.ensureExposure()
	default:
		return fmt.Errorf("experiments: unknown artifact kind %q", kind)
	}
}
