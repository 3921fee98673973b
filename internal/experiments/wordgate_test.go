package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/mem"
	"github.com/datacentric-gpu/dcrm/internal/simt"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// stuckWord is one stuck-at fault: mask's bits of the word at addr stuck
// at 1 (high) or 0.
type stuckWord struct {
	addr arch.Addr
	mask uint32
	high bool
}

// fixedStuck is a fault model that arms chosen stuck-at words instead of
// drawing sites from the selector, so a test decides exactly which words
// diverge.
type fixedStuck []stuckWord

func (fixedStuck) Name() string     { return "fixed-stuck" }
func (m fixedStuck) Params() string { return fmt.Sprint([]stuckWord(m)) }
func (fixedStuck) Validate() error  { return nil }
func (m fixedStuck) String() string { return "fixed stuck-at " + m.Params() }
func (m fixedStuck) Inject(f *mem.Memory, _ *rand.Rand, _ fault.Selector, _ *fault.Env) (fault.Injection, error) {
	for _, w := range m {
		if err := f.InjectStuckAt(w.addr, w.mask, w.high); err != nil {
			return fault.Injection{}, err
		}
	}
	return fault.Injection{}, nil
}

// flipWord is one transient upset: mask's bits of the word at addr flip.
type flipWord struct {
	addr arch.Addr
	mask uint32
}

// fixedFlips is a fault model that applies chosen bit flips at injection
// time, materializing their blocks in the run's fork the way a transient
// upset does, instead of drawing sites from the selector.
type fixedFlips []flipWord

func (fixedFlips) Name() string     { return "fixed-flip" }
func (m fixedFlips) Params() string { return fmt.Sprint([]flipWord(m)) }
func (fixedFlips) Validate() error  { return nil }
func (m fixedFlips) String() string { return "fixed flips " + m.Params() }
func (m fixedFlips) Inject(f *mem.Memory, _ *rand.Rand, _ fault.Selector, _ *fault.Env) (fault.Injection, error) {
	for _, w := range m {
		if err := f.FlipBits(w.addr, w.mask); err != nil {
			return fault.Injection{}, err
		}
	}
	return fault.Injection{}, nil
}

// zeroBits returns a mask of the n highest bits that are 0 in v.
func zeroBits(v uint32, n int) uint32 {
	var mask uint32
	for b := 31; b >= 0 && n > 0; b-- {
		if v&(1<<b) == 0 {
			mask |= 1 << b
			n--
		}
	}
	return mask
}

var (
	wordGateOnce  sync.Once
	wordGateReg   *telemetry.Registry
	wordGateSuite *Suite
	wordGateErr   error
)

// wordGateCheckpoint returns a checkpoint of a telemetry-attached suite
// shared by the word-gate tests, with its golden run and capture built.
func wordGateCheckpoint(t *testing.T, app string, scheme core.Scheme) *Checkpoint {
	t.Helper()
	wordGateOnce.Do(func() {
		wordGateReg = telemetry.NewRegistry()
		wordGateSuite, wordGateErr = NewSuite(SuiteConfig{NNTrainSamples: 60, Telemetry: wordGateReg})
	})
	if wordGateErr != nil {
		t.Fatal(wordGateErr)
	}
	base, err := wordGateSuite.App(app)
	if err != nil {
		t.Fatal(err)
	}
	level := 0
	if scheme != core.None {
		level = base.HotCount
	}
	cp, err := wordGateSuite.Checkpoint(app, scheme, level)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.ensureGolden(); err != nil {
		t.Fatal(err)
	}
	if cp.ensureCapture() == nil {
		t.Fatalf("%s: no capture", app)
	}
	return cp
}

// wordReaders describes who reads a set of words in the recorded
// execution, in serial warp order.
type wordReaders struct {
	// words counts the warps whose recorded loads read one of the words,
	// directly or — for a replica word — as the primary word a protected
	// load reads it with; first is the serial index of the first of them
	// (-1 if none).
	words, first int
	// blocks counts the warps whose load footprint holds one of the
	// words' blocks (a replica word's primary block); firstBlock is the
	// serial index of the first (-1 if none), and blocksBefore counts
	// those before first.
	blocks, firstBlock, blocksBefore int
	// warps counts every recorded warp.
	warps int
}

// readersOf scans the checkpoint's recorded execution for the warps
// reading addrs, each replica word mapped to its primary word first.
func readersOf(cp *Checkpoint, addrs ...arch.Addr) wordReaders {
	words := slices.Clone(addrs)
	if cp.Plan != nil {
		for i, a := range words {
			words[i] = cp.Plan.PrimaryWord(a)
		}
	}
	bufs := cp.App.Mem.Buffers()
	r := wordReaders{first: -1, firstBlock: -1}
	for _, kc := range cp.ensureCapture().Kernels {
		for _, wc := range kc.Warps {
			reads := warpReadsWord(bufs, wc, words)
			if slices.ContainsFunc(words, func(a arch.Addr) bool { return slices.Contains(wc.LoadBlocks, a.Block()) }) {
				if r.blocks == 0 {
					r.firstBlock = r.warps
				}
				r.blocks++
				if r.words == 0 && !reads {
					r.blocksBefore++
				}
			}
			if reads {
				if r.words == 0 {
					r.first = r.warps
				}
				r.words++
			}
			r.warps++
		}
	}
	return r
}

// warpReadsWord reports whether a recorded load of wc reads one of words.
func warpReadsWord(bufs []*mem.Buffer, wc *simt.WarpCapture, words []arch.Addr) bool {
	for i := range wc.Loads {
		rec := &wc.Loads[i]
		buf := bufs[rec.BufID]
		idxs := rec.Idx
		if rec.Broadcast {
			idxs = []int32{rec.BIdx}
		}
		for _, idx := range idxs {
			if idx != simt.InactiveLane && slices.Contains(words, buf.ElemAddr(int(idx))) {
				return true
			}
		}
	}
	return false
}

// runWordGate classifies one run under model through the batched path and
// returns its verdict and the warps the replay executed and reproduced.
// The verdict must match the clone-per-run oracle's.
func runWordGate(t *testing.T, cp *Checkpoint, model fault.Model) (out fault.Outcome, replayed, applied float64) {
	t.Helper()
	sel := wholeImageSelector(t, cp)
	want, err := oracleRun(cp, cp.golden, nil, rand.New(rand.NewSource(1)), model, sel)
	if err != nil {
		t.Fatal(err)
	}
	before := wordGateReg.Snapshot()
	outs, err := cp.RunBatch([]*rand.Rand{rand.New(rand.NewSource(1))}, model, sel)
	if err != nil {
		t.Fatal(err)
	}
	after := wordGateReg.Snapshot()
	if outs[0] != want {
		t.Errorf("batched verdict %v, clone-per-run oracle says %v", outs[0], want)
	}
	delta := func(name string) float64 { return counterValue(after, name) - counterValue(before, name) }
	return outs[0], delta("dcrm_campaign_replayed_warps_total"), delta("dcrm_campaign_applied_warps_total")
}

// TestBatchedWordGateCleanWords: stuck pixels in the middle of every other
// 32-pixel column band make only the warps whose stencil reads those very
// words execute; the warps of the bands between, whose stencil reaches a
// faulty block only at its edge pixel, are reproduced from the recording.
func TestBatchedWordGateCleanWords(t *testing.T) {
	cp := wordGateCheckpoint(t, "A-Meanfilter", core.None)
	img, okI := cp.App.Mem.BufferByName("Image")
	fw, okW := cp.App.Mem.BufferByName("Filter_Width")
	if !okI || !okW {
		t.Fatal("A-Meanfilter has no Image or Filter_Width object")
	}
	width := int(cp.App.Mem.ReadWord(fw.ElemAddr(0)))
	var model fixedStuck
	var addrs []arch.Addr
	for p := 0; p < img.Len4(); p++ {
		if p%width%64 != arch.WarpSize/2 {
			continue
		}
		a := img.ElemAddr(p)
		addrs = append(addrs, a)
		model = append(model, stuckWord{addr: a, mask: zeroBits(cp.App.Mem.ReadWord(a), 3), high: true})
	}
	r := readersOf(cp, addrs...)
	if r.words == 0 || r.blocks <= r.words {
		t.Fatalf("readers %+v: want warps reading faulty blocks only at clean words", r)
	}
	out, replayed, applied := runWordGate(t, cp, model)
	if out != fault.SDC {
		t.Errorf("verdict %v, want %v", out, fault.SDC)
	}
	if replayed != float64(r.words) || applied != float64(r.warps-r.words) {
		t.Errorf("replayed %v, applied %v warps; want the %d readers of the words executed and the other %d warps (%d more reading their blocks) reproduced",
			replayed, applied, r.words, r.warps-r.words, r.blocks-r.words)
	}
}

// TestBatchedWordGateConvergedStores: a stuck word whose stuck bits agree
// with the value the golden run stores there diverges in no read, so the
// warps reading it execute yet commit exactly the recorded values, and
// every downstream warp — the next layers reading their outputs — is
// reproduced.
func TestBatchedWordGateConvergedStores(t *testing.T) {
	cp := wordGateCheckpoint(t, "C-NN", core.None)
	n1, ok := cp.App.Mem.BufferByName("L1_Neurons")
	if !ok {
		t.Fatal("C-NN has no L1_Neurons object")
	}
	addr := n1.ElemAddr(n1.Len4() / 3)
	r := readersOf(cp, addr)
	if r.words == 0 {
		t.Fatal("no warp reads the chosen L1_Neurons word")
	}
	golden := cp.classifier.GoldenPost.ReadWord(addr)
	model := fixedStuck{{addr: addr, mask: zeroBits(golden, 3), high: false}}
	out, replayed, applied := runWordGate(t, cp, model)
	if out != fault.Masked {
		t.Errorf("verdict %v, want %v", out, fault.Masked)
	}
	if replayed != float64(r.words) || applied != float64(r.warps-r.words) {
		t.Errorf("replayed %v, applied %v warps; want only the %d readers of the word executed and the other %d reproduced",
			replayed, applied, r.words, r.warps-r.words)
	}
}

// TestBatchedWordGateReplicaDetects: a stuck word in a replica of a
// protected object is read by the detection scheme alongside its primary
// word, so the first warp reading that word still executes and the run is
// Detected; the earlier warps reading other words of the replica block are
// reproduced.
func TestBatchedWordGateReplicaDetects(t *testing.T) {
	cp := wordGateCheckpoint(t, "C-NN", core.Detection)
	addr := replicaWord29(t, cp)
	r := readersOf(cp, addr)
	if r.words == 0 || r.firstBlock >= r.first {
		t.Fatalf("readers %+v: want earlier warps reading only other words of the replica block", r)
	}
	model := fixedStuck{{addr: addr, mask: zeroBits(cp.App.Mem.ReadWord(addr), 3), high: true}}
	out, replayed, applied := runWordGate(t, cp, model)
	if out != fault.Detected {
		t.Errorf("verdict %v, want %v", out, fault.Detected)
	}
	// The reading warp aborts on the mismatch, so it counts as neither
	// replayed nor applied; every warp before it is reproduced.
	if replayed != 0 || applied != float64(r.first) {
		t.Errorf("replayed %v, applied %v warps; want 0 and the %d warps before the first reader",
			replayed, applied, r.first)
	}
}

// replicaWord29 returns the address of element 29 of the replica of C-NN's
// Layer1_Weights under the checkpoint's detection plan. Element 29 is a
// weight of the second feature map; its 128 B block also holds the first
// map's weights, read by earlier warps.
func replicaWord29(t *testing.T, cp *Checkpoint) arch.Addr {
	t.Helper()
	w1, ok := cp.App.Mem.BufferByName("Layer1_Weights")
	if !ok || !cp.Plan.IsProtected(w1) {
		t.Fatal("C-NN's Layer1_Weights is not protected under detection")
	}
	return cp.Plan.Replicas(w1)[0].ElemAddr(29)
}

// TestBatchedWordGateReplicaFlipDetects: a transient flip in a replica of
// a protected object materializes the replica block, which seeds every
// word of the primary block the scheme reads it with. The earlier warps
// reading other words of that block execute and stay clean, the first
// warp reading the flipped word's primary detects the mismatch, and the
// verdict is the clone-per-run oracle's.
func TestBatchedWordGateReplicaFlipDetects(t *testing.T) {
	cp := wordGateCheckpoint(t, "C-NN", core.Detection)
	addr := replicaWord29(t, cp)
	r := readersOf(cp, addr)
	if r.words == 0 || r.blocksBefore == 0 {
		t.Fatalf("readers %+v: want earlier warps reading only other words of the block", r)
	}
	out, replayed, applied := runWordGate(t, cp, fixedFlips{{addr: addr, mask: 0b111}})
	if out != fault.Detected {
		t.Errorf("verdict %v, want %v", out, fault.Detected)
	}
	// The reading warp aborts on the mismatch, so it counts as neither
	// replayed nor applied.
	if replayed != float64(r.blocksBefore) || applied != float64(r.first-r.blocksBefore) {
		t.Errorf("replayed %v, applied %v warps; want the %d earlier readers of the block executed and the other %d warps before the first reader reproduced",
			replayed, applied, r.blocksBefore, r.first-r.blocksBefore)
	}
}
