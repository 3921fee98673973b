package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/kernels"
	"github.com/datacentric-gpu/dcrm/internal/store"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// jobKinds maps the campaign kinds the API accepts to the experiment each
// one runs. Results marshal directly: every experiment returns exported
// structs.
var jobKinds = map[string]func(*experiments.Suite, jobParams) (any, error){
	"fig6": func(s *experiments.Suite, p jobParams) (any, error) {
		return experiments.Fig6HotVsRest(s, experiments.Fig6Config{Runs: p.Runs, Seed: p.Seed, Apps: p.Apps})
	},
	"fig7": func(s *experiments.Suite, p jobParams) (any, error) {
		return experiments.Fig7Overhead(s, experiments.Fig7Config{Apps: p.Apps})
	},
	"fig9": func(s *experiments.Suite, p jobParams) (any, error) {
		return experiments.Fig9Resilience(s, experiments.Fig9Config{Runs: p.Runs, Seed: p.Seed, Apps: p.Apps})
	},
	"breakdown": func(s *experiments.Suite, p jobParams) (any, error) {
		models, err := p.models()
		if err != nil {
			return nil, err
		}
		return experiments.FaultModelBreakdown(s, experiments.BreakdownConfig{
			Runs: p.Runs, Seed: p.Seed, Apps: p.Apps, Models: models,
		})
	},
}

// jobParams are the per-campaign knobs accepted by POST /v1/campaigns.
// Zero values fall back to each experiment's own defaults (the paper's
// run counts and seeds, the evaluated application set).
type jobParams struct {
	Apps []string `json:"apps,omitempty"`
	Runs int      `json:"runs,omitempty"`
	Seed int64    `json:"seed,omitempty"`
	// Models are fault-model registry specs ("stuck-at:bits=3,blocks=1"),
	// one per entry; empty falls back to the experiment's own sweep. Only
	// the breakdown kind consumes them today; other kinds reject them so a
	// typo'd request fails loudly instead of silently running defaults.
	Models []string `json:"models,omitempty"`
}

// models parses the fault-model specs, empty meaning "experiment default".
func (p jobParams) models() ([]fault.Model, error) {
	if len(p.Models) == 0 {
		return nil, nil
	}
	return fault.ParseModels(strings.Join(p.Models, ";"))
}

// maxRequestBytes caps a POST /v1/campaigns body; the handler answers a
// larger one with 413.
const maxRequestBytes = 1 << 20

// campaignRequest is the body of POST /v1/campaigns.
type campaignRequest struct {
	Kind string `json:"kind"`
	jobParams
}

// decodeCampaignRequest decodes and validates one campaign request body,
// so a malformed request fails at submission, before any job exists,
// instead of running with defaults or failing as a background job. The
// body must hold exactly one JSON object with only declared fields; the
// kind must be known; runs must not be negative (0 picks the experiment's
// default); every app must name a known application; and models, which
// only the breakdown kind accepts, must parse. Errors wrap the reader's,
// so a body over http.MaxBytesReader's cap stays recognizable.
func decodeCampaignRequest(body io.Reader) (campaignRequest, error) {
	var req campaignRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return campaignRequest{}, fmt.Errorf("malformed request body: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		if err == nil {
			err = errors.New("a second JSON value")
		}
		return campaignRequest{}, fmt.Errorf("malformed request body: data after the JSON object: %w", err)
	}
	if _, ok := jobKinds[req.Kind]; !ok {
		return campaignRequest{}, fmt.Errorf("unknown campaign kind %q (want fig6, fig7, fig9, or breakdown)", req.Kind)
	}
	if req.Runs < 0 {
		return campaignRequest{}, fmt.Errorf("runs must not be negative, got %d (0 picks the experiment's default)", req.Runs)
	}
	for _, app := range req.Apps {
		if _, err := kernels.ByName(app); err != nil {
			return campaignRequest{}, err
		}
	}
	if len(req.Models) > 0 {
		if req.Kind != "breakdown" {
			return campaignRequest{}, fmt.Errorf("campaign kind %q does not accept models (only breakdown does)", req.Kind)
		}
		if _, err := req.models(); err != nil {
			return campaignRequest{}, err
		}
	}
	return req, nil
}

// jobState is the lifecycle of a submitted campaign.
type jobState string

const (
	statePending jobState = "pending"
	stateRunning jobState = "running"
	stateDone    jobState = "done"
	stateFailed  jobState = "failed"
)

// job is one background campaign. The runner mutates it only under its
// mutex; handlers read copies taken under the same lock.
type job struct {
	ID        string    `json:"id"`
	Kind      string    `json:"kind"`
	Params    jobParams `json:"params"`
	State     jobState  `json:"state"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	Error     string    `json:"error,omitempty"`
	Result    any       `json:"result,omitempty"`
}

// errOverloaded rejects a submission once maxInflight campaigns are live;
// the HTTP layer maps it to 429 with a Retry-After.
var errOverloaded = errors.New("campaign queue full: maximum in-flight campaigns reached, retry later")

// runner owns the experiment suite and the background campaign jobs. The
// suite is built lazily on the first submission (C-NN weight training makes
// construction slow), so the daemon answers /healthz immediately after
// start.
type runner struct {
	cfg experiments.SuiteConfig
	reg *telemetry.Registry
	// maxInflight bounds pending+running jobs (admission control).
	maxInflight int

	suiteOnce sync.Once
	suite     *experiments.Suite
	suiteErr  error

	mu     sync.Mutex
	nextID int
	jobs   map[string]*job
	// inflight maps a request's content key to its live (pending or
	// running) job, so identical concurrent submissions coalesce onto one
	// run instead of queuing duplicates. Entries are removed on completion;
	// repeats after that still skip the work through the suite's result
	// store.
	inflight map[string]*job
	live     int
	wg       sync.WaitGroup

	jobsSubmitted *telemetry.CounterVec // dcrm_daemon_jobs_total{kind}
	jobsFinished  *telemetry.CounterVec // dcrm_daemon_jobs_finished_total{state}
	jobsRunning   *telemetry.Gauge      // dcrm_daemon_jobs_running
	jobsCoalesced *telemetry.Counter    // dcrm_daemon_jobs_coalesced_total
	jobsRejected  *telemetry.Counter    // dcrm_daemon_jobs_rejected_total
}

// newRunner wires a runner to reg; the suite inherits reg so campaign and
// fan-out counters from running jobs surface on /metrics live. maxInflight
// bounds concurrently live jobs (0 picks 2×GOMAXPROCS).
func newRunner(cfg experiments.SuiteConfig, reg *telemetry.Registry, maxInflight int) *runner {
	cfg.Telemetry = reg
	if maxInflight <= 0 {
		maxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	return &runner{
		cfg:         cfg,
		reg:         reg,
		maxInflight: maxInflight,
		jobs:        make(map[string]*job),
		inflight:    make(map[string]*job),
		jobsSubmitted: reg.CounterVec("dcrm_daemon_jobs_total",
			"Campaign jobs submitted, by kind.", "kind"),
		jobsFinished: reg.CounterVec("dcrm_daemon_jobs_finished_total",
			"Campaign jobs finished, by final state.", "state"),
		jobsRunning: reg.Gauge("dcrm_daemon_jobs_running",
			"Campaign jobs currently executing."),
		jobsCoalesced: reg.Counter("dcrm_daemon_jobs_coalesced_total",
			"Campaign submissions answered with an already-live identical job."),
		jobsRejected: reg.Counter("dcrm_daemon_jobs_rejected_total",
			"Campaign submissions rejected by admission control (HTTP 429)."),
	}
}

// requestKey is the content address of a submission: identical requests
// map to one key regardless of field order or arrival time.
func requestKey(kind string, params jobParams) string {
	return store.NewKey("dcrmd").
		Field("kind", kind).
		Field("apps", params.Apps).
		Field("runs", params.Runs).
		Field("seed", params.Seed).
		Field("models", params.Models).
		Key().Hash()
}

// getSuite builds the suite once and memoizes the result, error included.
// The fields are assigned under mu so the health handler can read the
// build state concurrently; callers of getSuite itself are ordered by the
// Once.
func (r *runner) getSuite() (*experiments.Suite, error) {
	r.suiteOnce.Do(func() {
		s, err := experiments.NewSuite(r.cfg)
		r.mu.Lock()
		r.suite, r.suiteErr = s, err
		r.mu.Unlock()
	})
	return r.suite, r.suiteErr
}

// submit registers a job for a request decodeCampaignRequest accepted and
// starts it in the background. Identical in-flight submissions coalesce
// onto the existing job (the returned snapshot carries its ID); distinct
// submissions beyond the in-flight bound are rejected with errOverloaded.
// It returns a snapshot of the job serving the request.
func (r *runner) submit(req campaignRequest) (job, error) {
	kind, params := req.Kind, req.jobParams
	runFn := jobKinds[kind]
	key := requestKey(kind, params)

	r.mu.Lock()
	if live := r.inflight[key]; live != nil {
		snap := *live
		snap.Result = nil // still running; nothing to elide, but stay consistent
		r.mu.Unlock()
		r.jobsCoalesced.Inc()
		return snap, nil
	}
	if r.live >= r.maxInflight {
		r.mu.Unlock()
		r.jobsRejected.Inc()
		return job{}, errOverloaded
	}
	r.nextID++
	j := &job{
		ID:        fmt.Sprintf("job-%d", r.nextID),
		Kind:      kind,
		Params:    params,
		State:     statePending,
		Submitted: time.Now().UTC(),
	}
	r.jobs[j.ID] = j
	r.inflight[key] = j
	r.live++
	snap := *j
	r.mu.Unlock()

	r.jobsSubmitted.With(kind).Inc()
	r.wg.Add(1)
	go r.execute(j, key, runFn)
	return snap, nil
}

// execute runs one job to completion. Suite construction errors fail the
// job rather than the daemon. The experiment builds its checkpoint
// artifacts on first use, or fetches them from the suite's store.
func (r *runner) execute(j *job, key string, runFn func(*experiments.Suite, jobParams) (any, error)) {
	defer r.wg.Done()

	r.mu.Lock()
	j.State = stateRunning
	j.Started = time.Now().UTC()
	params := j.Params
	r.mu.Unlock()
	r.jobsRunning.Add(1)
	defer r.jobsRunning.Add(-1)

	var result any
	suite, err := r.getSuite()
	if err == nil {
		result, err = runFn(suite, params)
	}

	r.mu.Lock()
	j.Finished = time.Now().UTC()
	if err != nil {
		j.State = stateFailed
		j.Error = err.Error()
	} else {
		j.State = stateDone
		j.Result = result
	}
	delete(r.inflight, key)
	r.live--
	r.jobsFinished.With(string(j.State)).Inc()
	r.mu.Unlock()
}

// get returns a snapshot of one job.
func (r *runner) get(id string) (job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return job{}, false
	}
	return *j, true
}

// list returns snapshots of every job without results (the per-job
// endpoint serves those), ordered by submission.
func (r *runner) list() []job {
	r.mu.Lock()
	out := make([]job, 0, len(r.jobs))
	for _, j := range r.jobs {
		snap := *j
		snap.Result = nil
		out = append(out, snap)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return numericIDLess(out[i].ID, out[k].ID) })
	return out
}

// numericIDLess orders "job-2" before "job-10".
func numericIDLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// counts tallies jobs by state for the health report.
func (r *runner) counts() map[jobState]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := make(map[jobState]int, 4)
	for _, j := range r.jobs {
		c[j.State]++
	}
	return c
}

// wait blocks until every background job has finished; the graceful
// shutdown path calls it after the listener closes.
func (r *runner) wait() { r.wg.Wait() }
