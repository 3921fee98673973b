// Checkpoint artifact cache: the lazy pieces of a campaign Checkpoint —
// the golden run (output, post-run image and the reference recording
// batched replay uses), the store-commit timeline, and the miss-selector
// weights — factored into individually keyed, serializable artifacts
// served through the suite's content-addressed store. Each artifact is
// keyed by the suite identity, its kind, artifactFormatVersion (so
// encodings never alias across format changes), and what it depends on:
// the golden by application alone, because a protected instance runs and
// records exactly what its base instance does (its replicas are allocated
// after every primary object and no kernel addresses them); the timeline
// and the miss weights by checkpoint configuration, because the plan's
// replica traffic changes them. An artifact is built in one way only: on
// first use, by whichever figure or campaign needs it, with the store's
// singleflight making concurrent first users share one computation.
// Artifacts persist through the store's checksummed disk tier: a second
// process, or a peer sharing the store directory, fetches instead of
// recomputing. Corrupt disk entries are detected by the store and
// recomputed transparently.
//
// Byte-identity contract: both the freshly-computed and the decoded paths
// reconstruct the live checkpoint state from the same pure-data artifact
// value (golden forks are replayed from the dirty-block delta, recorded
// kernels are reattached by index, selectors are rebuilt from the
// weights), so a warm start is bit-identical to a cold one by
// construction — the parity tests gate on exactly that.
package experiments

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/simt"
	"github.com/datacentric-gpu/dcrm/internal/store"
)

// artifactFormatVersion is folded into every artifact key. Bump it whenever
// any artifact encoding changes shape or meaning: old disk entries then
// simply stop being addressed, rather than decoding into the wrong state.
const artifactFormatVersion = 3

// Artifact kinds — the nodes of the checkpoint artifact DAG. All three hang
// off the checkpoint's prepared image (app + plan); none depends on another.
const (
	// ArtifactGolden is the fault-free reference run, one per application:
	// the metric output, the post-run image as a dirty-block delta against
	// the prepared image, and the recording batched replay uses.
	ArtifactGolden = "golden"
	// ArtifactCapture names the golden run's recording. No store entry has
	// this kind: BuildArtifact accepts it as a synonym for ArtifactGolden.
	ArtifactCapture = "capture"
	// ArtifactTimeline is the store-commit timeline consulted by
	// timeline-using fault models (fault.NeedsTimeline).
	ArtifactTimeline = "timeline"
	// ArtifactMissWeights is the Fig. 8 miss histogram behind the
	// miss-weighted block selector.
	ArtifactMissWeights = "missweights"
)

// maxCaptureBytes bounds an application's reference recording. Beyond it
// the golden artifact drops the recording and the batched path falls back
// to block-granular batching rather than hold an oversized capture alive.
const maxCaptureBytes = 64 << 20

// goldenArtifact is the serialized golden run: the metric output, the
// post-run memory image as a delta (mem.Memory.SnapshotBlocks) against the
// checkpoint's prepared image, which every process reconstructs identically
// from the application constructors, and the recorded warps of each kernel
// launch. Warps is nil when the recording exceeded maxCaptureBytes, so a
// warm process skips the oversized recording too and falls back exactly
// like the process that first ran it. Bytes is the kept recording's
// simt.CaptureLog.ApproxBytes: every checkpoint of the application shares
// the recorded warps, so the artifact's store entry is charged for them
// once, at this size.
type goldenArtifact struct {
	Output    []float32
	DirtyIdx  []int32
	DirtyData []byte
	Bytes     int64
	Warps     [][]*simt.WarpCapture
}

// missArtifact is the serialized miss histogram in the selector's
// deterministic block order.
type missArtifact struct {
	Blocks  []arch.BlockAddr
	Weights []float64
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
// size, when non-nil, is the store entry's accounted size (the store's
// default otherwise). (A free function because Go methods cannot be
// generic.)
func artifactDo[T any](cp *Checkpoint, kind string, size func(T) int64, compute func() (T, error)) (T, error) {
	if cp.tele.artRequests != nil {
		cp.tele.artRequests.With(kind).Inc()
	}
	counted := func() (T, error) {
		if cp.tele.artComputed != nil {
			cp.tele.artComputed.With(kind).Inc()
		}
		return compute()
	}
	return store.Do(cp.suite.st, cp.artifactKey(kind), store.Options[T]{Persist: true, Size: size}, counted)
}

// computeGoldenArtifact runs the fault-free golden execution once, on a
// throwaway fork, recording every warp's loads and stores as it goes, and
// snapshots its effects. Replicas are fault-free here, so the golden run
// skips the scheme overlay, and every instance of the application yields
// the same artifact (TestProtectedInstanceCapturesMatchBase): the one
// recording serves every configuration of the application.
func computeGoldenArtifact(cp *Checkpoint) (goldenArtifact, error) {
	f := cp.App.Mem.Fork()
	log, err := cp.App.CaptureRun(f, nil)
	if err != nil {
		return goldenArtifact{}, fmt.Errorf("experiments: %s golden run: %w", cp.App.Name, err)
	}
	idx, data := f.SnapshotBlocks()
	art := goldenArtifact{Output: cp.App.Output(f), DirtyIdx: idx, DirtyData: data}
	if bytes := log.ApproxBytes(); bytes <= maxCaptureBytes {
		art.Bytes = bytes
		art.Warps = make([][]*simt.WarpCapture, len(log.Kernels))
		for i, kc := range log.Kernels {
			art.Warps[i] = kc.Warps
		}
	}
	return art, nil
}

// reconstructCapture rebuilds the live recording from the golden artifact:
// kernels reattach to the checkpoint's kernel list by launch index, the
// recorded warps stay shared with the artifact. Returns nil when the
// artifact dropped its recording or does not match the application shape
// (callers fall back to full per-lane execution).
func (cp *Checkpoint) reconstructCapture(art goldenArtifact) *simt.CaptureLog {
	if len(art.Warps) != len(cp.App.Kernels) {
		return nil
	}
	log := &simt.CaptureLog{Kernels: make([]*simt.KernelCapture, len(art.Warps))}
	for i, warps := range art.Warps {
		log.Kernels[i] = &simt.KernelCapture{Kernel: cp.App.Kernels[i], Warps: warps}
	}
	return log
}

// Artifact footprint estimates for the checkpoint LRU re-accounting: the
// memory tier admits a checkpoint at its image size, then grows the
// accounted size as lazy artifacts materialize. The recording is not among
// them: its warps are shared by every checkpoint of the application and
// charged once, to the golden artifact's own store entry (goldenSize).

func goldenFootprint(art goldenArtifact) int64 {
	// output slice + the restored golden-post fork's private blocks (the
	// artifact value itself is accounted under its own store key)
	return int64(len(art.Output))*4 + int64(len(art.DirtyIdx))*4 + int64(len(art.DirtyData))
}

// goldenSize is the golden artifact's own store-entry size: the value's
// output and delta plus the recording it keeps.
func goldenSize(art goldenArtifact) int64 {
	return goldenFootprint(art) + art.Bytes
}

func timelineFootprint(tl *fault.Timeline) int64 {
	if tl == nil {
		return 0
	}
	// map overhead ≈ key + value + bucket bookkeeping per entry
	return 16 + int64(len(tl.LastStore))*48
}

func missFootprint(art missArtifact) int64 {
	// artifact blocks/weights plus the rebuilt selector's blocks/cumsum
	return 2 * (int64(len(art.Blocks))*4 + int64(len(art.Weights))*8)
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
// first-use path a campaign takes, and surfaces its build error. A dropped
// recording is not an error (the batched path falls back). ArtifactCapture
// builds the golden artifact, which carries the recording.
func (cp *Checkpoint) BuildArtifact(kind string) error {
	switch kind {
	case ArtifactGolden, ArtifactCapture:
		return cp.ensureGolden()
	case ArtifactTimeline:
		_, err := cp.Timeline()
		return err
	case ArtifactMissWeights:
		_, err := cp.MissSelector()
		return err
	default:
		return fmt.Errorf("experiments: unknown artifact kind %q", kind)
	}
}
