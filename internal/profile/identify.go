package profile

import (
	"github.com/datacentric-gpu/dcrm/internal/mem"
)

// Hot-object identification thresholds (IdentifyHotObjects). The minimum
// concentration — peak block reads over the median block's — is the Fig. 3
// knee threshold, hotMedianRatio.
const (
	// maxSizeFraction rejects objects larger than this fraction of the
	// application's memory: hot objects are small by definition (Table III
	// tops out at 2.15%; 0.10 leaves scaling headroom).
	maxSizeFraction = 0.10
	// minWarpSharePercent requires the object's hottest block to be read by
	// at least this percentage of a kernel's active warps. The paper asks
	// only that hot blocks be "shared across multiple warps" — C-NN's hot
	// weights are read by a few percent of warps per kernel (Fig. 4(c)) —
	// so the bound is a permissive 3.
	minWarpSharePercent = 3
)

// IdentifyHotObjects performs the paper's hot-data-object identification
// automatically from the profile, the way a binary-instrumentation flow
// (NVBit/CUPTI, Section IV-C) would, with no source-code knowledge:
//
//  1. only read-only input objects are candidates (replication requires
//     immutability),
//  2. the object's peak per-block read count must sit above the Fig. 3
//     knee (hotMedianRatio × median block reads),
//  3. the object must be small (maxSizeFraction of app memory), and
//  4. its hottest block must be shared across warps (Observation II).
//
// Results are returned in protection-priority order (peak block reads
// descending), ready to feed core.PlanConfig.Objects. objects must be the
// application's input data objects (the same slice the profile was
// attributed against).
//
// The identification is heuristic, as any instrumentation-based flow is:
// it recovers the paper's source-analysis ground truth exactly for nine of
// the ten bundled applications. For C-NN at scaled batch sizes it returns
// a small superset — Layer4_Weights and the Images batch also clear every
// profile-only criterion (read-only, above the knee, multi-warp shared)
// because their per-block read counts only fall below the weight tables'
// once hundreds of images are batched, as the paper's full-scale inputs
// do. Supersets are safe: they replicate a few extra small read-only
// objects.
func (p *Profile) IdentifyHotObjects(objects []*mem.Buffer) []*mem.Buffer {
	med := float64(p.medianReads())
	if med <= 0 {
		med = 1
	}
	byName := make(map[string]*mem.Buffer, len(objects))
	for _, o := range objects {
		byName[o.Name] = o
	}
	// Peak warp share per object.
	shareByName := make(map[string]float64, len(objects))
	for _, b := range p.Blocks {
		if b.Object == "" {
			continue
		}
		if b.SharePercent > shareByName[b.Object] {
			shareByName[b.Object] = b.SharePercent
		}
	}

	var hot []*mem.Buffer
	for _, os := range p.Objects { // already sorted by peak block reads desc
		buf, ok := byName[os.Name]
		if !ok || !os.ReadOnly {
			continue
		}
		if float64(os.PeakBlockReads) < hotMedianRatio*med {
			continue
		}
		if p.TotalMemBytes > 0 &&
			float64(os.SizeBytes) > maxSizeFraction*float64(p.TotalMemBytes) {
			continue
		}
		if shareByName[os.Name] < minWarpSharePercent {
			continue
		}
		hot = append(hot, buf)
	}
	return hot
}
