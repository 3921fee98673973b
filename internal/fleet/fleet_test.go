package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

func TestSplitShardsCoversRangeExactly(t *testing.T) {
	for _, tc := range []struct {
		runs, shardRuns int
		wantShards      int
	}{
		{1000, 125, 8},
		{1000, 0, 8},   // default shard size
		{1000, 300, 4}, // remainder shard
		{5, 125, 1},
		{7, 3, 3},
		{0, 10, 0},
	} {
		spec := CampaignSpec{App: "P-BICG", Runs: tc.runs}
		shards := SplitShards("job-1", spec, tc.shardRuns)
		if len(shards) != tc.wantShards {
			t.Errorf("SplitShards(runs=%d, shard=%d) = %d shards, want %d",
				tc.runs, tc.shardRuns, len(shards), tc.wantShards)
		}
		next := 0
		for i, sh := range shards {
			if sh.Index != i {
				t.Errorf("shard %d has index %d", i, sh.Index)
			}
			if sh.Start != next {
				t.Errorf("shard %d starts at %d, want %d (gap or overlap)", i, sh.Start, next)
			}
			if sh.End <= sh.Start {
				t.Errorf("shard %d has empty range [%d, %d)", i, sh.Start, sh.End)
			}
			next = sh.End
		}
		if next != tc.runs {
			t.Errorf("split of %d runs covers only [0, %d)", tc.runs, next)
		}
	}
}

func TestCountsRoundTripAndMerge(t *testing.T) {
	r := fault.Result{Runs: 10, MaskedRuns: 4, SDCRuns: 3, DetectedRuns: 1, CrashedRuns: 1, DUERuns: 1}
	if got := CountsFromResult(r).Result(); got != r {
		t.Fatalf("round trip = %+v, want %+v", got, r)
	}
	var merged Counts
	merged.Add(CountsFromResult(r))
	merged.Add(CountsFromResult(r))
	if merged.Runs != 20 || merged.SDC != 6 {
		t.Fatalf("merge = %+v", merged)
	}
}

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestCoordinator(t *testing.T, reg *telemetry.Registry) (*Coordinator, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	return NewCoordinator(CoordinatorConfig{
		HeartbeatEvery: time.Second,
		DeadAfter:      3 * time.Second,
		LeaseFor:       10 * time.Second,
		MaxAttempts:    3,
		Telemetry:      reg,
		now:            clk.now,
	}), clk
}

func spec(runs, shardRuns int) CampaignSpec {
	return CampaignSpec{
		App: "P-BICG", Scheme: "none", Space: "hot",
		Model: "stuck-at:bits=2,blocks=1", Runs: runs, Seed: 7, ShardRuns: shardRuns,
	}
}

// complete reports shard sh done with one masked run per index.
func complete(t *testing.T, c *Coordinator, workerID string, sh Shard) {
	t.Helper()
	n := sh.End - sh.Start
	err := c.Complete(CompleteRequest{
		WorkerID: workerID, JobID: sh.JobID, Index: sh.Index,
		Counts: Counts{Runs: n, Masked: n},
	})
	if err != nil {
		t.Fatalf("complete shard %d: %v", sh.Index, err)
	}
}

func TestCoordinatorSchedulesAndMerges(t *testing.T) {
	c, _ := newTestCoordinator(t, nil)
	w := c.Join(JoinRequest{Name: "w1"})
	job, err := c.Submit(spec(10, 4)) // shards: [0,4) [4,8) [8,10)
	if err != nil {
		t.Fatal(err)
	}
	if job.ShardsTotal != 3 || job.State != JobRunning {
		t.Fatalf("submitted job = %+v", job)
	}
	seen := 0
	for {
		resp, err := c.Poll(PollRequest{WorkerID: w.WorkerID})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Shard == nil {
			break
		}
		seen++
		complete(t, c, w.WorkerID, *resp.Shard)
	}
	if seen != 3 {
		t.Fatalf("polled %d shards, want 3", seen)
	}
	st, ok := c.Job(job.ID)
	if !ok || st.State != JobDone {
		t.Fatalf("job after completion = %+v", st)
	}
	if st.Merged.Runs != 10 || st.Merged.Masked != 10 {
		t.Fatalf("merged counts = %+v", st.Merged)
	}
	if st.SDCRate != 0 {
		t.Fatalf("SDC rate = %v, want 0", st.SDCRate)
	}
}

func TestCoordinatorStealsFromDeadWorker(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, clk := newTestCoordinator(t, reg)
	dead := c.Join(JoinRequest{Name: "dead"})
	job, err := c.Submit(spec(8, 4)) // 2 shards
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker takes the first shard and then goes silent.
	resp, err := c.Poll(PollRequest{WorkerID: dead.WorkerID})
	if err != nil || resp.Shard == nil {
		t.Fatalf("dead worker got no shard: %v %+v", err, resp)
	}
	abandoned := *resp.Shard

	// A healthy worker drains the queue, but cannot steal while the dead
	// worker is still within its liveness window and lease.
	alive := c.Join(JoinRequest{Name: "alive"})
	resp, err = c.Poll(PollRequest{WorkerID: alive.WorkerID})
	if err != nil || resp.Shard == nil {
		t.Fatal("healthy worker should get the second pending shard")
	}
	complete(t, c, alive.WorkerID, *resp.Shard)
	resp, _ = c.Poll(PollRequest{WorkerID: alive.WorkerID})
	if resp.Shard != nil {
		t.Fatalf("stole shard %d before the liveness window expired", resp.Shard.Index)
	}

	// Past the liveness window the abandoned shard becomes stealable.
	clk.advance(4 * time.Second)
	resp, err = c.Poll(PollRequest{WorkerID: alive.WorkerID})
	if err != nil || resp.Shard == nil {
		t.Fatal("expected to steal the dead worker's shard")
	}
	if resp.Shard.Index != abandoned.Index {
		t.Fatalf("stole shard %d, want abandoned shard %d", resp.Shard.Index, abandoned.Index)
	}
	complete(t, c, alive.WorkerID, *resp.Shard)

	st, _ := c.Job(job.ID)
	if st.State != JobDone || st.Merged.Runs != 8 {
		t.Fatalf("job after steal = %+v", st)
	}
	snap := reg.Snapshot()
	if got := counterValue(t, snap, "dcrm_fleet_shards_stolen_total"); got != 1 {
		t.Fatalf("stolen counter = %v, want 1", got)
	}

	// Liveness: one worker alive, one dead.
	workers := c.Workers()
	aliveN := 0
	for _, ws := range workers {
		if ws.Alive {
			aliveN++
		}
	}
	if len(workers) != 2 || aliveN != 1 {
		t.Fatalf("workers = %+v, want 2 with 1 alive", workers)
	}
}

func TestCoordinatorStealsExpiredLease(t *testing.T) {
	c, clk := newTestCoordinator(t, nil)
	slow := c.Join(JoinRequest{Name: "slow"})
	fast := c.Join(JoinRequest{Name: "fast"})
	if _, err := c.Submit(spec(4, 4)); err != nil { // single shard
		t.Fatal(err)
	}
	resp, _ := c.Poll(PollRequest{WorkerID: slow.WorkerID})
	if resp.Shard == nil {
		t.Fatal("straggler should get the shard")
	}
	// The straggler keeps heartbeating (alive) but never finishes; once
	// its lease expires the shard is stealable anyway.
	clk.advance(11 * time.Second)
	c.Heartbeat(HeartbeatRequest{WorkerID: slow.WorkerID})
	resp2, _ := c.Poll(PollRequest{WorkerID: fast.WorkerID})
	if resp2.Shard == nil || resp2.Shard.Index != resp.Shard.Index {
		t.Fatalf("expected lease steal, got %+v", resp2)
	}

	// First completion wins; the straggler's late duplicate is ignored.
	complete(t, c, fast.WorkerID, *resp2.Shard)
	complete(t, c, slow.WorkerID, *resp.Shard)
	st, _ := c.Job(resp.Shard.JobID)
	if st.Merged.Runs != 4 {
		t.Fatalf("duplicate completion double-counted: %+v", st.Merged)
	}
}

func TestCoordinatorRetriesFailedShardAndFailsJobAtBudget(t *testing.T) {
	c, _ := newTestCoordinator(t, nil) // MaxAttempts: 3
	w := c.Join(JoinRequest{Name: "w"})
	job, err := c.Submit(spec(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 3; attempt++ {
		resp, err := c.Poll(PollRequest{WorkerID: w.WorkerID})
		if err != nil || resp.Shard == nil {
			t.Fatalf("attempt %d: no shard (%v)", attempt, err)
		}
		if err := c.Complete(CompleteRequest{
			WorkerID: w.WorkerID, JobID: resp.Shard.JobID, Index: resp.Shard.Index,
			Err: "synthetic shard failure",
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The budget is exhausted: the next poll must not hand the shard out
	// again, and the job fails.
	resp, err := c.Poll(PollRequest{WorkerID: w.WorkerID})
	if err != nil || resp.Shard != nil {
		t.Fatalf("poll after budget exhaustion = %+v (%v)", resp, err)
	}
	st, _ := c.Job(job.ID)
	if st.State != JobFailed || st.Error == "" {
		t.Fatalf("job after exhausted retries = %+v", st)
	}
}

func TestCoordinatorRejectsBadSubmissionsAndCompletions(t *testing.T) {
	c, _ := newTestCoordinator(t, nil)
	if _, err := c.Submit(CampaignSpec{App: "P-BICG"}); err == nil {
		t.Error("zero-run submission accepted")
	}
	if _, err := c.Submit(CampaignSpec{Runs: 5}); err == nil {
		t.Error("app-less submission accepted")
	}
	c.cfg.ValidateSpec = func(s CampaignSpec) error { return fmt.Errorf("vetoed") }
	if _, err := c.Submit(spec(4, 4)); err == nil {
		t.Error("ValidateSpec veto ignored")
	}
	c.cfg.ValidateSpec = nil

	if _, err := c.Poll(PollRequest{WorkerID: "worker-99"}); err == nil {
		t.Error("unknown worker polled successfully")
	}
	if err := c.Complete(CompleteRequest{JobID: "fleet-99"}); err == nil {
		t.Error("completion for unknown job accepted")
	}
	job, _ := c.Submit(spec(4, 4))
	if err := c.Complete(CompleteRequest{JobID: job.ID, Index: 7}); err == nil {
		t.Error("completion for out-of-range shard accepted")
	}
	w := c.Join(JoinRequest{Name: "w"})
	resp, _ := c.Poll(PollRequest{WorkerID: w.WorkerID})
	if err := c.Complete(CompleteRequest{
		WorkerID: w.WorkerID, JobID: resp.Shard.JobID, Index: resp.Shard.Index,
		Counts: Counts{Runs: 1, Masked: 1}, // range holds 4
	}); err == nil {
		t.Error("run-count mismatch accepted")
	}
}

// TestCoordinatorRejectsUnknownFields: a campaign submission carrying a
// field CampaignSpec does not declare — the removed "batch", or a typo —
// gets a 400 instead of silently running with defaults; the same body
// without it is accepted.
func TestCoordinatorRejectsUnknownFields(t *testing.T) {
	c, _ := newTestCoordinator(t, nil)
	mux := http.NewServeMux()
	c.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	const fields = `"app":"P-BICG","scheme":"none","space":"hot","model":"burst","runs":8,"seed":7`
	for body, want := range map[string]int{
		`{` + fields + `,"batch":8}`: http.StatusBadRequest,
		`{` + fields + `,"seeds":7}`: http.StatusBadRequest,
		`{` + fields + `}`:           http.StatusAccepted,
	} {
		resp, err := http.Post(srv.URL+"/v1/fleet/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST %s = %d, want %d", body, resp.StatusCode, want)
		}
	}
}

// counterValue extracts one counter from a snapshot.
func counterValue(t *testing.T, snap []telemetry.Sample, name string) float64 {
	t.Helper()
	for _, s := range snap {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("no sample %q in snapshot", name)
	return 0
}
