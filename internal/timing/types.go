package timing

import (
	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/cache"
	"github.com/datacentric-gpu/dcrm/internal/dram"
)

// ProtectionPlan tells the LD/ST unit which loads are protected and where
// the replica copies live. internal/core implements it; a nil plan is the
// unprotected baseline.
type ProtectionPlan interface {
	// Copies returns how many copies the LD/ST unit must fetch when the
	// load at pc to the given data object misses in L1: 1 (unprotected),
	// 2 (duplication/detection) or 3 (triplication/correction).
	Copies(pc uint16, bufID int16) int
	// ReplicaBlock maps a primary block of the data object to the block
	// address of copy `copy` (1-based; copy 0 is the primary itself).
	ReplicaBlock(bufID int16, primary arch.BlockAddr, copy int) arch.BlockAddr
	// Lazy reports whether a protected load completes when its first copy
	// arrives (the detection scheme's lazy comparison) rather than when all
	// copies have arrived (the correction scheme's majority vote).
	Lazy() bool
}

// CompareBufferEntries is the pending-comparison buffer size: the paper
// allocates 128 B for at most 32 load instructions awaiting copy comparison
// at the LD/ST unit.
const CompareBufferEntries = 32

// stallParked is the readyAt sentinel for a warp parked on a structural
// stall (MSHR or compare buffer full); wakeSM clears it when a resource is
// released.
const stallParked = int64(1) << 62

// SchedulerPolicy selects the warp scheduler.
type SchedulerPolicy int

// Warp scheduling policies.
const (
	// GTO is greedy-then-oldest: keep issuing the current warp, fall back
	// to the oldest ready warp.
	GTO SchedulerPolicy = iota + 1
	// LRR is loose round-robin.
	LRR
)

// String renders the policy.
func (p SchedulerPolicy) String() string {
	switch p {
	case GTO:
		return "gto"
	case LRR:
		return "lrr"
	default:
		return "scheduler(?)"
	}
}

// KernelStats reports one kernel launch's timing results.
type KernelStats struct {
	// Kernel names the launch.
	Kernel string
	// Cycles is the launch's wall-clock core cycles, including memory drain.
	Cycles int64
	// Instructions is the number of warp instructions issued.
	Instructions uint64
	// L1 aggregates the per-SM L1 statistics.
	L1 cache.Stats
	// L2 aggregates the per-channel L2 bank statistics.
	L2 cache.Stats
	// DRAM aggregates the per-channel controller statistics.
	DRAM dram.Stats
	// NoC aggregates crossbar traffic.
	NoC NoCStats
	// CopyTransactions counts extra transactions issued for replica copies.
	CopyTransactions uint64
	// MSHRStalls and CompareStalls count structural-hazard retries.
	MSHRStalls    uint64
	CompareStalls uint64
}

// NoCStats counts crossbar traversals: requests from the SMs' inject ports
// to the channels' ingress ports, and responses from the channels' egress
// ports back to the SMs.
type NoCStats struct {
	Requests  uint64
	Responses uint64
}

// L1MissedAccesses returns the metric Fig. 7 plots: the number of read
// accesses that missed in L1 and therefore travelled to L2/DRAM, including
// replica-copy accesses.
func (k KernelStats) L1MissedAccesses() uint64 { return k.L1.ReadMisses }

// IPC returns warp instructions issued per cycle across the whole GPU — a
// coarse utilization measure (an SM issues at most one warp instruction
// per cycle, so the ceiling equals the SM count).
func (k KernelStats) IPC() float64 {
	if k.Cycles == 0 {
		return 0
	}
	return float64(k.Instructions) / float64(k.Cycles)
}

// AppStats accumulates kernel stats across an application's launches.
type AppStats struct {
	// App names the application.
	App string
	// Kernels holds per-launch stats in execution order.
	Kernels []KernelStats
}

// TotalCycles sums cycles across kernels (kernels launch back-to-back).
func (a AppStats) TotalCycles() int64 {
	var n int64
	for _, k := range a.Kernels {
		n += k.Cycles
	}
	return n
}

// TotalL1Misses sums L1 read misses across kernels.
func (a AppStats) TotalL1Misses() uint64 {
	var n uint64
	for _, k := range a.Kernels {
		n += k.L1.ReadMisses
	}
	return n
}

// TotalInstructions sums issued warp instructions across kernels.
func (a AppStats) TotalInstructions() uint64 {
	var n uint64
	for _, k := range a.Kernels {
		n += k.Instructions
	}
	return n
}
