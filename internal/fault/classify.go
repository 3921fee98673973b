package fault

import (
	"errors"
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/mem"
	"github.com/datacentric-gpu/dcrm/internal/metrics"
)

// ErrUncorrectable is the sentinel for detected-uncorrectable
// terminations: ECC or a duplication scheme saw the corruption but could
// not repair it, so the run was aborted. Run functions wrap it (matched
// with errors.Is) and the Classifier maps it to DUE. Models that can
// prove uncorrectable detection at injection time short-circuit through
// Injection.Pre instead and never execute the run.
var ErrUncorrectable = errors.New("fault: detected uncorrectable error")

// Classifier maps fault-injected runs to Outcomes against a golden
// checkpoint. The fast path is data-centric: instead of always extracting
// the output vector and evaluating the quality metric, each post-run forked
// memory is compared against the golden post-run image block by block —
// only blocks either run wrote, plus the overlaid fault words, with early
// exit on the first divergence — in one bit-parallel sweep over a whole
// claim (mem.BatchDiverges). A run whose resolved post-run state is
// bit-identical to the golden one has exactly the golden output, so its
// metric value is 0 and it is Masked under every threshold; only divergent
// runs pay for output extraction and the metric.
type Classifier struct {
	// Golden is the fault-free output under the metric.
	Golden []float32
	// GoldenPost is the golden post-run memory image the runs' forks are
	// compared against: a sibling fork of theirs, or the root they fork
	// when it holds the golden post-run state. Batched campaigns set it per
	// claim to the claim's shared image after the last recorded warp.
	GoldenPost *mem.Memory
	// Metric judges divergent outputs (Table II).
	Metric metrics.Metric
	// DetectErr, when non-nil, identifies detection-scheme terminations
	// (matched with errors.Is): such runs are Detected, every other run
	// error is a fault-induced Crash. The sentinel is injected by the
	// caller so this package stays below the protection-plan layer.
	DetectErr error
}

// ClassifyBatch resolves up to mem.BatchLanes runs in one sweep. Lane i
// ran on the post-run fork forks[i] and ended with runErrs[i]. A run error
// decides the lane on its own: ErrUncorrectable is DUE (outranking the
// scheme's detection sentinel, since ECC sees the corruption before the
// software check would), DetectErr is Detected, and any other error — a
// fault that pushed an index out of bounds, say — is Crashed. The
// error-free lanes share one divergence scan against the golden image
// (mem.BatchDiverges); only lanes it marks divergent pay for output
// extraction and the quality metric, which decides SDC vs. Masked.
func (c *Classifier) ClassifyBatch(runErrs []error, forks []*mem.Memory, output func(*mem.Memory) []float32) ([]Outcome, error) {
	if len(runErrs) != len(forks) {
		return nil, fmt.Errorf("fault: batch classify got %d errors for %d forks", len(runErrs), len(forks))
	}
	if len(forks) > mem.BatchLanes {
		return nil, fmt.Errorf("fault: batch classify got %d lanes, one sweep holds %d", len(forks), mem.BatchLanes)
	}
	outs := make([]Outcome, len(forks))
	clean := make([]*mem.Memory, len(forks))
	anyClean := false
	for i, runErr := range runErrs {
		if runErr != nil {
			switch {
			case errors.Is(runErr, ErrUncorrectable):
				outs[i] = DUE
			case c.DetectErr != nil && errors.Is(runErr, c.DetectErr):
				outs[i] = Detected
			default:
				outs[i] = Crashed
			}
			continue
		}
		clean[i] = forks[i]
		anyClean = true
	}
	if !anyClean {
		return outs, nil
	}
	if c.GoldenPost == nil {
		return nil, fmt.Errorf("fault: classifier has no golden post-run image")
	}
	diverged := mem.BatchDiverges(c.GoldenPost, clean)
	for i, m := range clean {
		if m == nil {
			continue
		}
		if diverged&(1<<uint(i)) == 0 {
			outs[i] = Masked
			continue
		}
		sdc, err := c.Metric.IsSDC(output(m), c.Golden)
		if err != nil {
			return nil, err
		}
		if sdc {
			outs[i] = SDC
		} else {
			outs[i] = Masked
		}
	}
	return outs, nil
}
