package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/fleet"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// newFleetServer builds a daemon whose coordinator uses test-speed fault
// tolerance knobs: heartbeats every 20 ms, death after 100 ms of silence,
// a lease long enough that live workers are never stolen from spuriously.
func newFleetServer(t *testing.T) (*httptest.Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{
		HeartbeatEvery: 20 * time.Millisecond,
		DeadAfter:      100 * time.Millisecond,
		LeaseFor:       30 * time.Second,
		MaxAttempts:    20,
		ValidateSpec:   experiments.ValidateSpec,
		Telemetry:      reg,
	})
	r := newRunner(experiments.SuiteConfig{NNTrainSamples: 60, Workers: 2}, reg, 64)
	srv := httptest.NewServer(newMux(r, coord, reg, false))
	t.Cleanup(srv.Close)
	return srv, reg
}

// workerSuite is one fleet member's private experiment suite — each
// in-process worker gets its own, approximating a separate host.
func workerSuite(t testing.TB) *experiments.Suite {
	t.Helper()
	s, err := experiments.NewSuite(experiments.SuiteConfig{NNTrainSamples: 60})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// startWorker launches a fleet worker goroutine; the returned channel
// yields Run's verdict.
func startWorker(t *testing.T, ctx context.Context, coordinator, name string, run fleet.ShardRunner) (*fleet.Worker, chan error) {
	t.Helper()
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: coordinator,
		Name:        name,
		Run:         run,
		IdleWait:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	return w, done
}

// serialFleetResult runs the campaign spec describes in one process — the
// reference the merged fleet output must match byte for byte. A single
// shard spanning [0, Runs) takes the code path Campaign itself delegates
// to, on a suite independent from every worker's.
func serialFleetResult(t *testing.T, spec fleet.CampaignSpec) fault.Result {
	t.Helper()
	s := workerSuite(t)
	sh := fleet.SplitShards("serial", spec, spec.Runs)[0]
	counts, _, err := experiments.RunShard(context.Background(), s, sh)
	if err != nil {
		t.Fatal(err)
	}
	return counts.Result()
}

// submitFleet posts a campaign to the fleet API and returns its job ID.
func submitFleet(t *testing.T, url string, spec fleet.CampaignSpec) string {
	t.Helper()
	payload, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/v1/fleet/campaigns", "application/json",
		strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st fleet.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 202 || st.ID == "" {
		t.Fatalf("fleet submission = HTTP %d, status %+v", resp.StatusCode, st)
	}
	return st.ID
}

// awaitFleetJob polls the job endpoint until the job leaves JobRunning.
func awaitFleetJob(t *testing.T, url, id string) fleet.JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st fleet.JobStatus
		getJSON(t, url+"/v1/fleet/campaigns/"+id, &st)
		if st.State != fleet.JobRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet job %s stuck: %+v", id, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetSurvivesWorkerDeath is the fabric's end-to-end contract: a
// coordinator drives three workers through a sharded campaign, one worker
// is killed mid-shard (no completion report, heartbeats stop — a crashed
// host), the coordinator steals the abandoned shard, and the merged result
// is still byte-identical to the single-process campaign.
func TestFleetSurvivesWorkerDeath(t *testing.T) {
	srv, reg := newFleetServer(t)
	spec := fleet.CampaignSpec{
		App: "P-BICG", Scheme: "none", Space: "hot",
		Model: "stuck-at:bits=2,blocks=1",
		Runs:  60, Seed: 9, ShardRuns: 5, // 12 shards
	}
	want := serialFleetResult(t, spec)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Worker 0 is the victim: it executes its first shard normally, then
	// hangs on its second until the test kills it — leaving that shard
	// assigned-but-abandoned for the others to steal.
	victimSuite := workerSuite(t)
	victimShards := 0
	hanging := make(chan struct{})
	victimRun := func(ctx context.Context, sh fleet.Shard) (fleet.Counts, string, error) {
		victimShards++
		if victimShards > 1 {
			close(hanging)
			<-ctx.Done() // Kill() fires this
			return fleet.Counts{}, "", ctx.Err()
		}
		return experiments.RunShard(ctx, victimSuite, sh)
	}
	victim, victimDone := startWorker(t, ctx, srv.URL, "victim", victimRun)

	// The survivors hold their first shards until the victim hangs. Left
	// free, they could finish every other shard before the victim polls
	// again, and the victim would never reach a second shard.
	for i := 1; i < 3; i++ {
		run := experiments.ShardRunner(workerSuite(t))
		survivorRun := func(shardCtx context.Context, sh fleet.Shard) (fleet.Counts, string, error) {
			select {
			case <-hanging:
			case <-ctx.Done(): // the test is ending
				return fleet.Counts{}, "", ctx.Err()
			}
			return run(shardCtx, sh)
		}
		_, done := startWorker(t, ctx, srv.URL, "survivor", survivorRun)
		defer func() { cancel(); <-done }()
	}

	id := submitFleet(t, srv.URL, spec)

	// Kill the victim the moment it hangs, mid-shard. Run returns the hard
	// cancellation, and the shard it held is never completed by it.
	select {
	case <-hanging:
	case <-time.After(2 * time.Minute):
		t.Fatal("victim worker never reached its second shard")
	}
	victim.Kill()
	if err := <-victimDone; err == nil {
		t.Fatal("killed worker returned nil, want its hard-cancellation error")
	}

	st := awaitFleetJob(t, srv.URL, id)
	if st.State != fleet.JobDone {
		t.Fatalf("fleet job ended %q: %s", st.State, st.Error)
	}
	if st.ShardsDone != st.ShardsTotal || st.ShardsTotal != 12 {
		t.Errorf("shards done %d/%d, want 12/12", st.ShardsDone, st.ShardsTotal)
	}

	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(st.Merged.Result())
	if string(wantJSON) != string(gotJSON) {
		t.Errorf("fleet result %s != serial result %s", gotJSON, wantJSON)
	}

	// The abandoned shard was stolen, not lost.
	if stolen := counterValue(t, reg, "dcrm_fleet_shards_stolen_total"); stolen < 1 {
		t.Errorf("dcrm_fleet_shards_stolen_total = %v, want >= 1", stolen)
	}

	// The registry saw all three workers; the victim is no longer alive.
	var workers struct {
		Workers []fleet.WorkerStatus `json:"workers"`
	}
	getJSON(t, srv.URL+"/v1/fleet/workers", &workers)
	if len(workers.Workers) != 3 {
		t.Fatalf("worker registry has %d entries, want 3", len(workers.Workers))
	}
	alive := 0
	for _, w := range workers.Workers {
		if w.Alive {
			alive++
		}
	}
	if alive != 2 {
		t.Errorf("%d workers alive after the kill, want 2", alive)
	}
}

// TestFleetSingleWorkerParity is the CI shard-parity gate at the daemon
// level: a one-worker fleet with an uneven shard split must produce output
// byte-identical to the serial campaign.
func TestFleetSingleWorkerParity(t *testing.T) {
	srv, reg := newFleetServer(t)
	spec := fleet.CampaignSpec{
		App: "P-BICG", Scheme: "none", Space: "hot",
		Model: "stuck-at:bits=2,blocks=1",
		Runs:  40, Seed: 7, ShardRuns: 7, // uneven: 5×7 + 1×5
	}
	want := serialFleetResult(t, spec)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := workerSuite(t)
	_, done := startWorker(t, ctx, srv.URL, "solo", experiments.ShardRunner(s))
	defer func() { cancel(); <-done }()

	id := submitFleet(t, srv.URL, spec)
	st := awaitFleetJob(t, srv.URL, id)
	if st.State != fleet.JobDone {
		t.Fatalf("fleet job ended %q: %s", st.State, st.Error)
	}

	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(st.Merged.Result())
	if string(wantJSON) != string(gotJSON) {
		t.Errorf("1-worker fleet result %s != serial result %s", gotJSON, wantJSON)
	}
	if stolen := counterValue(t, reg, "dcrm_fleet_shards_stolen_total"); stolen != 0 {
		t.Errorf("dcrm_fleet_shards_stolen_total = %v on a healthy fleet, want 0", stolen)
	}
}

// counterValue reads one unlabeled counter from the registry (0 when the
// counter was never touched).
func counterValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	sample, ok := reg.Snapshot().Get(name)
	if !ok {
		return 0
	}
	return sample.Value
}
