package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// CoordinatorConfig tunes the control plane.
type CoordinatorConfig struct {
	// HeartbeatEvery is the cadence workers are told to heartbeat at
	// (default 2s).
	HeartbeatEvery time.Duration
	// DeadAfter is the liveness window: a worker silent for longer is
	// considered dead and its assigned shards become stealable
	// (default 3 × HeartbeatEvery).
	DeadAfter time.Duration
	// LeaseFor bounds how long one shard may stay assigned to a live
	// worker before another idle worker may steal it — the straggler
	// bound (default 2 minutes).
	LeaseFor time.Duration
	// MaxAttempts bounds assignment attempts per shard; a shard failing
	// (or being stolen) this many times fails its job (default 5).
	MaxAttempts int
	// ValidateSpec, when non-nil, vets a submission before it is split
	// into shards (the daemon wires scheme/space/model validation here so
	// a typo'd request fails at POST time, not on a worker).
	ValidateSpec func(CampaignSpec) error
	// Telemetry, when non-nil, receives the fleet counters
	// (dcrm_fleet_*). Observation only.
	Telemetry *telemetry.Registry
	// now is the injectable clock for tests (nil = time.Now).
	now func() time.Time
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 2 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3 * c.HeartbeatEvery
	}
	if c.LeaseFor <= 0 {
		c.LeaseFor = 2 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// shardState tracks one shard through the scheduler.
type shardState struct {
	shard Shard
	// done shards never leave that state: a duplicate completion (the
	// original owner of a stolen shard finishing late) is ignored, which
	// is sound because shard results are deterministic.
	done     bool
	assigned bool
	worker   string
	deadline time.Time
	attempts int
	counts   Counts
}

// fleetJob is one sharded campaign.
type fleetJob struct {
	id     string
	spec   CampaignSpec
	shards []*shardState
	doneN  int
	merged Counts
	state  JobState
	errMsg string
}

func (j *fleetJob) status() JobStatus {
	st := JobStatus{
		ID:          j.id,
		Spec:        j.spec,
		State:       j.state,
		Error:       j.errMsg,
		ShardsTotal: len(j.shards),
		ShardsDone:  j.doneN,
		Merged:      j.merged,
	}
	for _, s := range j.shards {
		if !s.done && s.assigned {
			st.ShardsAssigned++
		}
		if !s.done && !s.assigned {
			st.ShardsPending++
		}
	}
	res := j.merged.Result()
	st.SDCRate = res.SDCRate()
	st.SDCHalfWidth = res.ConfidenceHalfWidth()
	return st
}

// workerState tracks one registered worker.
type workerState struct {
	id, name, addr string
	lastSeen       time.Time
	shardsDone     int
}

// Coordinator owns the fleet: worker registry, shard queue, and the
// incremental merge of completed shards. All methods are safe for
// concurrent use; the HTTP handlers in Register are thin wrappers over
// them, so in-process tests can drive the scheduler without a listener.
type Coordinator struct {
	cfg CoordinatorConfig

	mu         sync.Mutex
	nextWorker int
	nextJob    int
	workers    map[string]*workerState
	jobs       map[string]*fleetJob
	// pending is the FIFO queue of unassigned shards across all jobs.
	pending []*shardState

	workersJoined   *telemetry.Counter
	workersAlive    *telemetry.Gauge
	shardsAssigned  *telemetry.Counter
	shardsStolen    *telemetry.Counter
	shardsRetried   *telemetry.Counter
	shardsCompleted *telemetry.Counter
}

// NewCoordinator builds the control plane.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		workers: make(map[string]*workerState),
		jobs:    make(map[string]*fleetJob),
	}
	if reg := cfg.Telemetry; reg != nil {
		c.workersJoined = reg.Counter("dcrm_fleet_workers_joined_total",
			"Fleet workers that registered with the coordinator.")
		c.workersAlive = reg.Gauge("dcrm_fleet_workers_alive",
			"Fleet workers currently within the heartbeat liveness window.")
		c.shardsAssigned = reg.Counter("dcrm_fleet_shards_assigned_total",
			"Campaign shards handed to workers (steals and retries included).")
		c.shardsStolen = reg.Counter("dcrm_fleet_shards_stolen_total",
			"Campaign shards reassigned away from dead or straggling workers.")
		c.shardsRetried = reg.Counter("dcrm_fleet_shards_retried_total",
			"Campaign shards re-queued after a worker reported failure.")
		c.shardsCompleted = reg.Counter("dcrm_fleet_shards_completed_total",
			"Campaign shards completed and merged.")
	}
	return c
}

// Join registers a worker and returns its identity and heartbeat cadence.
func (c *Coordinator) Join(req JoinRequest) JoinResponse {
	c.mu.Lock()
	c.nextWorker++
	w := &workerState{
		id:       fmt.Sprintf("worker-%d", c.nextWorker),
		name:     req.Name,
		addr:     req.Addr,
		lastSeen: c.cfg.now(),
	}
	c.workers[w.id] = w
	c.mu.Unlock()
	if c.workersJoined != nil {
		c.workersJoined.Inc()
	}
	c.publishAlive()
	return JoinResponse{
		WorkerID:        w.id,
		HeartbeatMillis: int(c.cfg.HeartbeatEvery / time.Millisecond),
	}
}

// Heartbeat marks a worker alive. Known=false means the coordinator does
// not recognize the ID (e.g. it restarted) and the worker must rejoin.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	w, ok := c.workers[req.WorkerID]
	if ok {
		w.lastSeen = c.cfg.now()
	}
	c.mu.Unlock()
	c.publishAlive()
	return HeartbeatResponse{Known: ok}
}

// Submit validates and registers a campaign, splits it into shards, and
// queues them for the fleet. The job starts running immediately (workers
// pick shards up on their next poll).
func (c *Coordinator) Submit(spec CampaignSpec) (JobStatus, error) {
	if spec.Runs <= 0 {
		return JobStatus{}, fmt.Errorf("fleet: campaign needs a positive run count, got %d", spec.Runs)
	}
	if spec.App == "" {
		return JobStatus{}, fmt.Errorf("fleet: campaign needs an app")
	}
	if c.cfg.ValidateSpec != nil {
		if err := c.cfg.ValidateSpec(spec); err != nil {
			return JobStatus{}, err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextJob++
	j := &fleetJob{
		id:    fmt.Sprintf("fleet-%d", c.nextJob),
		spec:  spec,
		state: JobRunning,
	}
	for _, sh := range SplitShards(j.id, spec, spec.ShardRuns) {
		st := &shardState{shard: sh}
		j.shards = append(j.shards, st)
		c.pending = append(c.pending, st)
	}
	c.jobs[j.id] = j
	return j.status(), nil
}

// Poll hands the calling worker at most one shard: the oldest pending
// shard if any, else a shard stolen from a dead or straggling worker.
func (c *Coordinator) Poll(req PollRequest) (PollResponse, error) {
	now := c.cfg.now()
	c.mu.Lock()
	w, ok := c.workers[req.WorkerID]
	if !ok {
		c.mu.Unlock()
		return PollResponse{}, fmt.Errorf("fleet: unknown worker %q (rejoin required)", req.WorkerID)
	}
	w.lastSeen = now

	st := c.claimLocked(req.WorkerID, now)
	c.mu.Unlock()
	c.publishAlive()
	if st == nil {
		return PollResponse{WaitMillis: int(c.cfg.HeartbeatEvery / time.Millisecond / 2)}, nil
	}
	if c.shardsAssigned != nil {
		c.shardsAssigned.Inc()
	}
	sh := st.shard
	return PollResponse{Shard: &sh}, nil
}

// claimLocked picks the shard to assign to workerID, preferring the
// pending queue and falling back to work stealing. Caller holds mu.
func (c *Coordinator) claimLocked(workerID string, now time.Time) *shardState {
	// Drop already-completed shards (a duplicate completion landed after a
	// re-queue) and shards of jobs that already failed.
	for len(c.pending) > 0 {
		st := c.pending[0]
		c.pending = c.pending[1:]
		if !c.assignableLocked(st) {
			continue
		}
		c.assignLocked(st, workerID, now)
		return st
	}
	// Work stealing: an assigned, unfinished shard whose worker is dead
	// (missed its liveness window) or whose lease expired (straggler) may
	// be re-run by an idle worker. Deterministic shard results make the
	// duplicated execution harmless — first completion wins, the late one
	// is ignored. Scan in (job, shard) order so stealing is deterministic.
	ids := make([]string, 0, len(c.jobs))
	for id := range c.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, st := range c.jobs[id].shards {
			if st.done || !st.assigned || st.worker == workerID || !c.assignableLocked(st) {
				continue
			}
			owner := c.workers[st.worker]
			ownerDead := owner == nil || now.Sub(owner.lastSeen) > c.cfg.DeadAfter
			if !ownerDead && now.Before(st.deadline) {
				continue
			}
			if c.shardsStolen != nil {
				c.shardsStolen.Inc()
			}
			c.assignLocked(st, workerID, now)
			return st
		}
	}
	return nil
}

// assignableLocked reports whether st may still be handed out, failing
// its job once the attempt budget is exhausted. Caller holds mu.
func (c *Coordinator) assignableLocked(st *shardState) bool {
	if st.done {
		return false
	}
	if j := c.jobs[st.shard.JobID]; j != nil && j.state != JobRunning {
		return false
	}
	if st.attempts >= c.cfg.MaxAttempts {
		c.failJobLocked(st.shard.JobID, fmt.Sprintf(
			"shard %d exhausted its %d assignment attempts", st.shard.Index, c.cfg.MaxAttempts))
		return false
	}
	return true
}

// assignLocked marks st assigned to workerID with a fresh lease. Caller
// holds mu and has checked assignableLocked.
func (c *Coordinator) assignLocked(st *shardState, workerID string, now time.Time) {
	st.attempts++
	st.assigned = true
	st.worker = workerID
	st.deadline = now.Add(c.cfg.LeaseFor)
}

// failJobLocked marks a job failed (its remaining shards stay schedulable
// no further — they are left in place but the job state is terminal).
func (c *Coordinator) failJobLocked(jobID, msg string) {
	if j := c.jobs[jobID]; j != nil && j.state == JobRunning {
		j.state = JobFailed
		j.errMsg = msg
	}
}

// Complete merges one shard result. Duplicate completions (a stolen
// shard's original owner finishing late) are ignored; failed shards are
// re-queued until the attempt budget runs out.
func (c *Coordinator) Complete(req CompleteRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[req.JobID]
	if !ok {
		return fmt.Errorf("fleet: completion for unknown job %q", req.JobID)
	}
	if req.Index < 0 || req.Index >= len(j.shards) {
		return fmt.Errorf("fleet: completion for job %s shard %d (job has %d shards)",
			req.JobID, req.Index, len(j.shards))
	}
	if w := c.workers[req.WorkerID]; w != nil {
		w.lastSeen = c.cfg.now()
	}
	st := j.shards[req.Index]
	if st.done {
		return nil
	}
	if req.Err != "" {
		// The shard failed on this worker: back to the queue (the attempt
		// budget in assignLocked bounds how often).
		st.assigned = false
		st.worker = ""
		c.pending = append(c.pending, st)
		if c.shardsRetried != nil {
			c.shardsRetried.Inc()
		}
		return nil
	}
	if got, want := req.Counts.Runs, st.shard.End-st.shard.Start; got != want {
		return fmt.Errorf("fleet: job %s shard %d reported %d runs, range holds %d",
			req.JobID, req.Index, got, want)
	}
	st.done = true
	st.assigned = false
	st.counts = req.Counts
	j.doneN++
	j.merged.Add(req.Counts)
	if w := c.workers[req.WorkerID]; w != nil {
		w.shardsDone++
	}
	if c.shardsCompleted != nil {
		c.shardsCompleted.Inc()
	}
	if j.doneN == len(j.shards) && j.state == JobRunning {
		j.state = JobDone
	}
	return nil
}

// Job returns one job's status snapshot.
func (c *Coordinator) Job(id string) (JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// Jobs returns every job's status, ordered by numeric ID.
func (c *Coordinator) Jobs() []JobStatus {
	c.mu.Lock()
	out := make([]JobStatus, 0, len(c.jobs))
	for _, j := range c.jobs {
		out = append(out, j.status())
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		if len(out[i].ID) != len(out[k].ID) {
			return len(out[i].ID) < len(out[k].ID)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Workers returns the worker registry with liveness, ordered by ID.
func (c *Coordinator) Workers() []WorkerStatus {
	now := c.cfg.now()
	c.mu.Lock()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerStatus{
			ID:                w.id,
			Name:              w.name,
			Addr:              w.addr,
			Alive:             now.Sub(w.lastSeen) <= c.cfg.DeadAfter,
			ShardsDone:        w.shardsDone,
			LastSeenMillisAgo: now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, k int) bool {
		if len(out[i].ID) != len(out[k].ID) {
			return len(out[i].ID) < len(out[k].ID)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// AliveWorkers counts workers within the liveness window.
func (c *Coordinator) AliveWorkers() int {
	n := 0
	for _, w := range c.Workers() {
		if w.Alive {
			n++
		}
	}
	return n
}

// publishAlive refreshes the liveness gauge.
func (c *Coordinator) publishAlive() {
	if c.workersAlive == nil {
		return
	}
	c.workersAlive.Set(float64(c.AliveWorkers()))
}

// Register wires the coordinator's HTTP surface onto mux:
//
//	POST /v1/fleet/join            worker registration
//	POST /v1/fleet/heartbeat       worker liveness
//	POST /v1/fleet/poll            pull one shard assignment
//	POST /v1/fleet/complete        report one shard result
//	POST /v1/fleet/campaigns       submit a campaign to shard across the fleet
//	GET  /v1/fleet/campaigns       all fleet jobs
//	GET  /v1/fleet/campaigns/{id}  one job with merged counts + CI
//	GET  /v1/fleet/workers         worker registry with liveness
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/fleet/join", func(w http.ResponseWriter, r *http.Request) {
		var req JoinRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		writeFleetJSON(w, http.StatusOK, c.Join(req))
	})
	mux.HandleFunc("POST /v1/fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		writeFleetJSON(w, http.StatusOK, c.Heartbeat(req))
	})
	mux.HandleFunc("POST /v1/fleet/poll", func(w http.ResponseWriter, r *http.Request) {
		var req PollRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := c.Poll(req)
		if err != nil {
			writeFleetError(w, http.StatusGone, err)
			return
		}
		writeFleetJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/fleet/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if err := c.Complete(req); err != nil {
			writeFleetError(w, http.StatusBadRequest, err)
			return
		}
		writeFleetJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("POST /v1/fleet/campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec CampaignSpec
		if !decodeJSON(w, r, &spec) {
			return
		}
		st, err := c.Submit(spec)
		if err != nil {
			writeFleetError(w, http.StatusBadRequest, err)
			return
		}
		writeFleetJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/fleet/campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeFleetJSON(w, http.StatusOK, map[string]any{"campaigns": c.Jobs()})
	})
	mux.HandleFunc("GET /v1/fleet/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := c.Job(r.PathValue("id"))
		if !ok {
			writeFleetError(w, http.StatusNotFound,
				fmt.Errorf("no fleet campaign %q", r.PathValue("id")))
			return
		}
		writeFleetJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/fleet/workers", func(w http.ResponseWriter, r *http.Request) {
		writeFleetJSON(w, http.StatusOK, map[string]any{"workers": c.Workers()})
	})
}

// decodeJSON decodes a request body into v, answering 400 to malformed
// JSON and to any field v does not declare, so a stale or typo'd request
// fails closed instead of running with defaults.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeFleetError(w, http.StatusBadRequest, fmt.Errorf("malformed request body: %w", err))
		return false
	}
	return true
}

func writeFleetJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeFleetError(w http.ResponseWriter, status int, err error) {
	writeFleetJSON(w, status, map[string]string{"error": err.Error()})
}
