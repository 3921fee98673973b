// Package core implements the paper's contribution: data-centric partial
// replication of hot data objects for multi-bit fault detection and
// correction in GPU memory (Section IV).
//
// A Plan replicates selected read-only data objects in device memory —
// twice for the detection scheme, three times for detection-and-correction —
// and interposes on every lane read of a protected object:
//
//   - Detection: the two copies are compared bit-wise; a mismatch raises a
//     terminate signal (ErrFaultDetected) so the application exits early
//     instead of silently corrupting its output. In the timing model the
//     comparison is lazy: execution proceeds on the first copy's arrival.
//   - Correction: a bit-wise majority vote across the three copies repairs
//     any fault confined to one copy; execution waits for all three copies.
//
// The same Plan drives both the functional path (simt.WordReader, used by
// fault-injection campaigns) and the timing path (timing.ProtectionPlan,
// used by the performance experiments).
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/mem"
	"github.com/datacentric-gpu/dcrm/internal/simt"
	"github.com/datacentric-gpu/dcrm/internal/timing"
)

// ErrFaultDetected is the terminate signal of the detection scheme: a
// bit-wise mismatch between the copies of a protected data object. The user
// is expected to rerun the application (Section IV-B1).
var ErrFaultDetected = errors.New("core: multi-bit fault detected in protected data object")

// Scheme selects the resilience scheme.
type Scheme int

// Resilience schemes.
const (
	// None is the unprotected baseline.
	None Scheme = iota + 1
	// Detection duplicates protected objects and compares copies (lazy).
	Detection
	// Correction triplicates protected objects and majority-votes.
	Correction
)

// String renders the scheme.
func (s Scheme) String() string {
	switch s {
	case None:
		return "baseline"
	case Detection:
		return "detection"
	case Correction:
		return "detection+correction"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// ParseScheme parses a scheme name as accepted by the CLI flags:
// "none"/"baseline", "detection", or "correction" (the String rendering
// "detection+correction" is accepted too).
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "none", "baseline", "":
		return None, nil
	case "detection":
		return Detection, nil
	case "correction", "detection+correction":
		return Correction, nil
	}
	return 0, fmt.Errorf("core: unknown scheme %q (want none, detection, or correction)", s)
}

// Copies returns the number of data copies the scheme keeps.
func (s Scheme) Copies() int {
	switch s {
	case Detection:
		return 2
	case Correction:
		return 3
	default:
		return 1
	}
}

// Hardware budget constants from Section IV-C.
const (
	// AddrTableBytes is the storage allocated for replica start addresses.
	AddrTableBytes = 128
	// MaxObjectsDetection and MaxObjectsCorrection are how many protected
	// objects the 128 B address table accommodates (32-bit start addresses;
	// one per copy beyond the primary).
	MaxObjectsDetection  = 32
	MaxObjectsCorrection = 16
	// LoadTableBytes is the storage for protected load-instruction
	// addresses, accommodating MaxLoadSites 32-bit PCs.
	LoadTableBytes = 128
	MaxLoadSites   = 32
	// ComparatorBits is the width of the bit-wise comparator (32 B
	// granularity).
	ComparatorBits = 256
	// AdderBits is the index adder used to form replica addresses.
	AdderBits = 32
)

// SiteBinding associates a static load site with the data object it reads.
// Applications export their bindings so a Plan can validate the hardware
// load-table budget and the timing model can key protection off load PCs.
type SiteBinding struct {
	// Site is the static load instruction.
	Site simt.Site
	// Buf is the data object the site reads.
	Buf *mem.Buffer
}

// PlanConfig configures NewPlan.
type PlanConfig struct {
	// Scheme selects detection or correction (None builds a pass-through
	// plan).
	Scheme Scheme
	// Objects are the data objects to protect, in priority order (the
	// paper's hot data objects first).
	Objects []*mem.Buffer
	// Sites are the application's static load sites. Optional: when
	// provided, the plan validates that the protected sites fit the 128 B
	// load-instruction table.
	Sites []SiteBinding
}

// object is one protected data object with its replica copies.
type object struct {
	primary  *mem.Buffer
	replicas []*mem.Buffer
}

// Plan is a built protection plan bound to one device memory image.
type Plan struct {
	scheme Scheme
	m      *mem.Memory
	// objects is indexed by primary buffer ID (nil = unprotected); a
	// slice rather than a map because every protected lane read looks it up.
	objects []*object
	// protectedPCs is the load-instruction table content (for reporting).
	protectedPCs []uint16
}

// NewPlan replicates the configured objects inside m and returns the plan.
// Replicas are fresh allocations at distinct addresses; their contents are
// copied from the primaries at build time (kernel launch time in the
// paper's flow).
func NewPlan(m *mem.Memory, cfg PlanConfig) (*Plan, error) {
	switch cfg.Scheme {
	case None, Detection, Correction:
	default:
		return nil, fmt.Errorf("core: unknown scheme %d", int(cfg.Scheme))
	}
	p := &Plan{scheme: cfg.Scheme, m: m}
	if cfg.Scheme == None || len(cfg.Objects) == 0 {
		return p, nil
	}
	maxObjects := MaxObjectsDetection
	if cfg.Scheme == Correction {
		maxObjects = MaxObjectsCorrection
	}
	if len(cfg.Objects) > maxObjects {
		return nil, fmt.Errorf("core: %d objects exceed the %d-entry address table for %v",
			len(cfg.Objects), maxObjects, cfg.Scheme)
	}
	// Validate everything before allocating replicas, so a rejected config
	// leaves the memory image untouched.
	ids := make(map[int]bool, len(cfg.Objects))
	for _, b := range cfg.Objects {
		if b == nil {
			return nil, errors.New("core: nil object in plan")
		}
		if bufs := m.Buffers(); b.ID < 0 || b.ID >= len(bufs) || bufs[b.ID] != b {
			return nil, fmt.Errorf("core: object %q is not allocated in this memory image", b.Name)
		}
		if !b.ReadOnly {
			return nil, fmt.Errorf("core: object %q is writable; only read-only objects can be replicated", b.Name)
		}
		if ids[b.ID] {
			return nil, fmt.Errorf("core: object %q listed twice", b.Name)
		}
		ids[b.ID] = true
	}
	for _, sb := range cfg.Sites {
		if sb.Buf != nil && ids[sb.Buf.ID] {
			p.protectedPCs = append(p.protectedPCs, sb.Site.PC)
		}
	}
	if len(p.protectedPCs) > MaxLoadSites {
		return nil, fmt.Errorf("core: %d protected load sites exceed the %d-entry load table",
			len(p.protectedPCs), MaxLoadSites)
	}
	p.objects = make([]*object, len(m.Buffers()))
	for _, b := range cfg.Objects {
		obj := &object{primary: b}
		for c := 1; c < cfg.Scheme.Copies(); c++ {
			rep, err := m.Alloc(fmt.Sprintf("%s#copy%d", b.Name, c), b.Size, true)
			if err != nil {
				return nil, fmt.Errorf("core: replicating %q: %w", b.Name, err)
			}
			if err := m.CopyBuffer(rep, b); err != nil {
				return nil, fmt.Errorf("core: replicating %q: %w", b.Name, err)
			}
			obj.replicas = append(obj.replicas, rep)
		}
		p.objects[b.ID] = obj
	}
	return p, nil
}

// Scheme returns the plan's scheme.
func (p *Plan) Scheme() Scheme { return p.scheme }

// ProtectedObjects returns how many objects the plan protects.
func (p *Plan) ProtectedObjects() int {
	n := 0
	for _, obj := range p.objects {
		if obj != nil {
			n++
		}
	}
	return n
}

// ProtectedPCs returns the load-instruction table contents (empty when the
// plan was built without site bindings).
func (p *Plan) ProtectedPCs() []uint16 { return append([]uint16(nil), p.protectedPCs...) }

// object returns the protected object whose primary buffer has the given
// ID, or nil when that buffer is unprotected.
func (p *Plan) object(id int) *object {
	if id < 0 || id >= len(p.objects) {
		return nil
	}
	return p.objects[id]
}

// IsProtected reports whether the buffer is covered by the plan.
func (p *Plan) IsProtected(b *mem.Buffer) bool { return p.object(b.ID) != nil }

// Replicas returns the replica buffers of a protected object (nil if
// unprotected).
func (p *Plan) Replicas(b *mem.Buffer) []*mem.Buffer {
	obj := p.object(b.ID)
	if obj == nil {
		return nil
	}
	return append([]*mem.Buffer(nil), obj.replicas...)
}

// ForMemory rebinds the plan to a cloned or copy-on-write forked memory
// image. Buffer metadata (IDs, addresses) is shared between a memory and
// its clones and forks, so the same object table applies. Use this to run
// fault injection campaigns against per-run forks of a prepared image.
func (p *Plan) ForMemory(clone *mem.Memory) *Plan {
	return &Plan{scheme: p.scheme, m: clone, objects: p.objects, protectedPCs: p.protectedPCs}
}

// ReadLaneWord implements simt.WordReader: the functional semantics of the
// protection schemes.
func (p *Plan) ReadLaneWord(buf *mem.Buffer, addr arch.Addr) (uint32, error) {
	obj := p.object(buf.ID)
	if obj == nil || p.scheme == None {
		return p.m.ReadWord(addr), nil
	}
	off := addr - buf.Base
	primary := p.m.ReadWord(addr)
	switch p.scheme {
	case Detection:
		replica := p.m.ReadWord(obj.replicas[0].Base + off)
		if primary != replica {
			return 0, fmt.Errorf("core: object %q offset %d: copies differ (%#x vs %#x): %w",
				buf.Name, off, primary, replica, ErrFaultDetected)
		}
		return primary, nil
	case Correction:
		c1 := p.m.ReadWord(obj.replicas[0].Base + off)
		c2 := p.m.ReadWord(obj.replicas[1].Base + off)
		return (primary & c1) | (primary & c2) | (c1 & c2), nil
	default:
		return primary, nil
	}
}

// Copies implements timing.ProtectionPlan.
func (p *Plan) Copies(_ uint16, bufID int16) int {
	if p.object(int(bufID)) == nil {
		return 1
	}
	return p.scheme.Copies()
}

// ReplicaBlock implements timing.ProtectionPlan.
func (p *Plan) ReplicaBlock(bufID int16, primary arch.BlockAddr, copy int) arch.BlockAddr {
	obj := p.object(int(bufID))
	if obj == nil || copy < 1 || copy > len(obj.replicas) {
		return primary
	}
	return obj.replicas[copy-1].FirstBlock() + (primary - obj.primary.FirstBlock())
}

// PrimaryWord inverts ReplicaBlock's layout: for the address of a word in
// a replica, the padded tail of its last block included, it returns the
// word at the same offset of the protected object — the primary word whose
// reads compare or vote against it. Every other address maps to itself.
func (p *Plan) PrimaryWord(a arch.Addr) arch.Addr {
	for _, obj := range p.objects {
		if obj == nil {
			continue
		}
		for _, r := range obj.replicas {
			if off := a - r.Base; a >= r.Base && off < arch.Addr(r.Blocks()*arch.BlockBytes) {
				return obj.primary.Base + off
			}
		}
	}
	return a
}

// Lazy implements timing.ProtectionPlan: only the detection scheme
// completes loads on first copy arrival.
func (p *Plan) Lazy() bool { return p.scheme == Detection }

// Compile-time interface checks.
var (
	_ simt.WordReader       = (*Plan)(nil)
	_ timing.ProtectionPlan = (*Plan)(nil)
)

// Cost is the hardware overhead model of Section IV-C.
type Cost struct {
	// AddrTableBytes, LoadTableBytes, CompareBufferBytes are the fixed
	// LD/ST-unit storage additions.
	AddrTableBytes     int
	LoadTableBytes     int
	CompareBufferBytes int
	// ComparatorBits and AdderBits are the added datapath widths.
	ComparatorBits int
	AdderBits      int
	// ReplicaBytes is the DRAM consumed by the replica copies.
	ReplicaBytes int
}

// Describe renders a human-readable summary of the plan for CLI reports.
func (p *Plan) Describe() string {
	if p.scheme == None || p.ProtectedObjects() == 0 {
		return "baseline (no protection)"
	}
	var names []string
	for _, obj := range p.objects {
		if obj != nil {
			names = append(names, obj.primary.Name)
		}
	}
	sort.Strings(names)
	c := p.Cost()
	return fmt.Sprintf("%v over %s (%d replica B in DRAM, %d protected load PCs)",
		p.scheme, strings.Join(names, ", "), c.ReplicaBytes, len(p.protectedPCs))
}

// Cost reports the plan's hardware overhead.
func (p *Plan) Cost() Cost {
	replica := 0
	for _, obj := range p.objects {
		if obj == nil {
			continue
		}
		for _, r := range obj.replicas {
			replica += r.Size
		}
	}
	return Cost{
		AddrTableBytes:     AddrTableBytes,
		LoadTableBytes:     LoadTableBytes,
		CompareBufferBytes: 128,
		ComparatorBits:     ComparatorBits,
		AdderBits:          AdderBits,
		ReplicaBytes:       replica,
	}
}
