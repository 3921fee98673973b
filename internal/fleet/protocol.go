// Package fleet is the distributed campaign fabric: a coordinator that
// shards fault-injection campaigns into run-index ranges and a worker
// loop that executes them, speaking a small JSON-over-HTTP protocol.
//
// The design recreates the methodology of "Hard Data on Soft Errors"
// (which ran its GPGPU error study across ~20,000 Folding@home hosts) at
// library scale: a campaign of N runs is split into shards — contiguous
// run-index ranges — and because every run's random stream is derived
// deterministically from (seed, run index), any shard split merged back
// together is byte-identical to the single-process campaign. The
// coordinator hands shards to workers on a pull basis (workers poll when
// idle), tracks worker liveness through heartbeats, steals shards back
// from stragglers and dead workers, and merges the binomial outcome
// counts workers stream back into incremental confidence intervals.
//
// The package is deliberately independent of the experiment layer: the
// coordinator schedules opaque CampaignSpecs and workers execute them
// through a caller-supplied ShardRunner. internal/experiments provides
// the production runner (RunShard), which reuses campaign checkpoints and
// publishes shard results under content-addressed store keys so a
// restarted worker — or any peer sharing the disk store — fetches instead
// of recomputes.
package fleet

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/fault"
)

// CampaignSpec identifies one campaign cell — everything a worker needs
// to reconstruct the exact single-process campaign it is sharding. All
// fields are part of the result's identity: two specs that differ in any
// field are different campaigns (and different store keys).
type CampaignSpec struct {
	// App is the application name (e.g. "P-BICG").
	App string `json:"app"`
	// Scheme is the protection scheme: "none", "detection", or
	// "correction".
	Scheme string `json:"scheme"`
	// Level is the cumulative protected-object count (0 = unprotected).
	Level int `json:"level"`
	// Space selects the injection block space: "hot" or "rest" (the
	// Fig. 6 hot-object division) or "miss" (the Fig. 9 miss-weighted
	// whole-space selector).
	Space string `json:"space"`
	// Model is a fault-model registry spec, e.g. "stuck-at:bits=2,blocks=1"
	// (see docs/FAULT-MODELS.md).
	Model string `json:"model"`
	// Runs is the total campaign run count being sharded.
	Runs int `json:"runs"`
	// Seed derives every run's random stream from (Seed, run index).
	Seed int64 `json:"seed"`
	// ShardRuns is the target shard size in runs (0 = the coordinator's
	// default). The split never changes results, only scheduling grain.
	ShardRuns int `json:"shard_runs,omitempty"`
}

// String renders the spec compactly for logs and errors.
func (s CampaignSpec) String() string {
	return fmt.Sprintf("%s/%s/L%d/%s/%s runs=%d seed=%d",
		s.App, s.Scheme, s.Level, s.Space, s.Model, s.Runs, s.Seed)
}

// Shard is one schedulable unit: the run-index range [Start, End) of the
// campaign Spec describes.
type Shard struct {
	// JobID names the coordinator job the shard belongs to.
	JobID string `json:"job_id"`
	// Index is the shard's position in the job's deterministic split.
	Index int `json:"index"`
	// Spec is the full campaign the shard is a slice of.
	Spec CampaignSpec `json:"spec"`
	// Start and End bound the shard's run indices: [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`
}

// Counts are the binomial outcome tallies of one shard (or one merged
// campaign) — the payload workers stream back to the coordinator.
type Counts struct {
	Runs     int `json:"runs"`
	Masked   int `json:"masked"`
	SDC      int `json:"sdc"`
	Detected int `json:"detected"`
	Crashed  int `json:"crashed"`
	DUE      int `json:"due"`
}

// CountsFromResult converts a campaign result into wire counts.
func CountsFromResult(r fault.Result) Counts {
	return Counts{
		Runs:     r.Runs,
		Masked:   r.MaskedRuns,
		SDC:      r.SDCRuns,
		Detected: r.DetectedRuns,
		Crashed:  r.CrashedRuns,
		DUE:      r.DUERuns,
	}
}

// Result converts wire counts back into a campaign result, so merged
// fleet output can be compared (byte for byte) with the single-process
// path and fed to the existing confidence-interval helpers.
func (c Counts) Result() fault.Result {
	return fault.Result{
		Runs:         c.Runs,
		MaskedRuns:   c.Masked,
		SDCRuns:      c.SDC,
		DetectedRuns: c.Detected,
		CrashedRuns:  c.Crashed,
		DUERuns:      c.DUE,
	}
}

// Add accumulates other into c (the coordinator's incremental merge).
func (c *Counts) Add(other Counts) {
	c.Runs += other.Runs
	c.Masked += other.Masked
	c.SDC += other.SDC
	c.Detected += other.Detected
	c.Crashed += other.Crashed
	c.DUE += other.DUE
}

// JoinRequest registers a worker with the coordinator.
type JoinRequest struct {
	// Name is a human-readable worker label (host:port or a test name).
	Name string `json:"name"`
	// Addr, when non-empty, is the worker's own HTTP address (its
	// /healthz), recorded for operators; the protocol itself is pull-based
	// and never dials workers.
	Addr string `json:"addr,omitempty"`
}

// JoinResponse assigns the worker its identity and cadence.
type JoinResponse struct {
	WorkerID string `json:"worker_id"`
	// HeartbeatMillis is how often the worker must heartbeat; missing
	// several in a row marks it dead and frees its shards for stealing.
	HeartbeatMillis int `json:"heartbeat_millis"`
}

// HeartbeatRequest reports a worker as alive.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
}

// HeartbeatResponse acknowledges a heartbeat. Known=false tells a worker
// the coordinator no longer recognizes it (a coordinator restart): the
// worker must rejoin before polling again.
type HeartbeatResponse struct {
	Known bool `json:"known"`
}

// PollRequest asks for work.
type PollRequest struct {
	WorkerID string `json:"worker_id"`
}

// PollResponse carries at most one shard assignment. A nil Shard means no
// work is available; the worker should poll again after WaitMillis.
type PollResponse struct {
	Shard      *Shard `json:"shard,omitempty"`
	WaitMillis int    `json:"wait_millis,omitempty"`
}

// CompleteRequest reports one shard's outcome. Err non-empty means the
// shard failed on this worker; the coordinator re-queues it (bounded by
// its retry budget).
type CompleteRequest struct {
	WorkerID string `json:"worker_id"`
	JobID    string `json:"job_id"`
	Index    int    `json:"index"`
	Counts   Counts `json:"counts"`
	// StoreKey, when non-empty, is the content-addressed store key the
	// worker published the shard result under, so peers sharing a disk
	// store fetch instead of recompute.
	StoreKey string `json:"store_key,omitempty"`
	Err      string `json:"err,omitempty"`
}

// JobState is the lifecycle of a fleet campaign job.
type JobState string

// Job states.
const (
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobStatus is the coordinator's view of one sharded campaign, served
// from GET /v1/fleet/campaigns/{id} and updated incrementally as shards
// complete.
type JobStatus struct {
	ID    string       `json:"id"`
	Spec  CampaignSpec `json:"spec"`
	State JobState     `json:"state"`
	Error string       `json:"error,omitempty"`
	// ShardsTotal/Done/Pending/Assigned decompose scheduling progress.
	ShardsTotal    int `json:"shards_total"`
	ShardsDone     int `json:"shards_done"`
	ShardsPending  int `json:"shards_pending"`
	ShardsAssigned int `json:"shards_assigned"`
	// Merged accumulates completed shards' counts. While the job runs it
	// covers only the completed run indices; once done it is byte-identical
	// to the single-process campaign result.
	Merged Counts `json:"merged"`
	// SDCRate and SDCHalfWidth are the running binomial estimate over the
	// merged runs: the 95% normal-approximation confidence interval
	// tightens live as shards stream in.
	SDCRate      float64 `json:"sdc_rate"`
	SDCHalfWidth float64 `json:"sdc_half_width"`
}

// WorkerStatus is one row of GET /v1/fleet/workers.
type WorkerStatus struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	Addr string `json:"addr,omitempty"`
	// Alive reports whether the worker heartbeat within the liveness
	// window.
	Alive bool `json:"alive"`
	// ShardsDone counts shards this worker completed successfully.
	ShardsDone int `json:"shards_done"`
	// LastSeenMillisAgo is the age of the last heartbeat or poll.
	LastSeenMillisAgo int64 `json:"last_seen_millis_ago"`
}
