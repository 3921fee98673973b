package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// postCampaign submits a campaign body and returns the decoded response job
// and status code.
func postCampaign(t *testing.T, url, body string) (job, *http.Response) {
	t.Helper()
	resp, err := http.Post(url+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j job
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
	}
	return j, resp
}

// waitAllJobs polls until no submitted job is pending or running.
func waitAllJobs(t *testing.T, r *runner) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		counts := r.counts()
		if counts[statePending]+counts[stateRunning] == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs stuck: %v", counts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonCoalescesConcurrentDuplicates fires many concurrent campaign
// submissions — most identical, a few distinct — and proves via the
// result-store telemetry that each distinct request computed exactly once:
// duplicates either coalesced onto a live job or were served from the
// store. Runs under -race in CI.
func TestDaemonCoalescesConcurrentDuplicates(t *testing.T) {
	srv, r := newTestServer(t)

	const dupCallers = 12
	distinctSeeds := []int64{31, 32, 33}
	identical := `{"kind":"fig6","apps":["P-BICG"],"runs":6,"seed":5}`

	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := make(map[int]int)
	dupJobIDs := make(map[string]bool)
	for i := 0; i < dupCallers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, resp := postCampaign(t, srv.URL, identical)
			mu.Lock()
			statuses[resp.StatusCode]++
			if j.ID != "" {
				dupJobIDs[j.ID] = true
			}
			mu.Unlock()
		}()
	}
	for _, seed := range distinctSeeds {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			body := fmt.Sprintf(`{"kind":"fig6","apps":["P-BICG"],"runs":6,"seed":%d}`, seed)
			_, resp := postCampaign(t, srv.URL, body)
			mu.Lock()
			statuses[resp.StatusCode]++
			mu.Unlock()
		}(seed)
	}
	wg.Wait()
	waitAllJobs(t, r)

	if statuses[http.StatusAccepted] != dupCallers+len(distinctSeeds) {
		t.Fatalf("statuses = %v, want all %d accepted", statuses, dupCallers+len(distinctSeeds))
	}

	// The singleflight proof: 15 accepted submissions, 4 distinct request
	// keys, so the fig6 experiment ran exactly 4 times. Duplicates that
	// overlapped a live job coalesced onto it (same job ID back); any that
	// arrived after completion hit the result store instead of recomputing.
	snap := r.reg.Snapshot()
	computed, ok := snap.Get("dcrm_experiment_results_computed_total",
		telemetry.Label{Name: "figure", Value: "fig6"})
	if !ok {
		t.Fatal("no fig6 computed counter")
	}
	if want := float64(1 + len(distinctSeeds)); computed.Value != want {
		t.Errorf("fig6 computed %v times, want %v (one per distinct request)", computed.Value, want)
	}
	if requests, ok := snap.Get("dcrm_experiment_results_requests_total",
		telemetry.Label{Name: "figure", Value: "fig6"}); !ok || requests.Value < computed.Value {
		t.Errorf("fig6 requests = %v, want >= computed %v", requests.Value, computed.Value)
	}

	// Identical submissions all name a fig6 job; they cannot have fanned
	// out over more jobs than the duplicate-arrival worst case, and every
	// coalesced response reused a live job's ID.
	coalesced, _ := snap.Get("dcrm_daemon_jobs_coalesced_total")
	submitted, _ := snap.Get("dcrm_daemon_jobs_total", telemetry.Label{Name: "kind", Value: "fig6"})
	if submitted.Value+coalesced.Value != float64(dupCallers+len(distinctSeeds)) {
		t.Errorf("submitted %v + coalesced %v != %d accepted responses",
			submitted.Value, coalesced.Value, dupCallers+len(distinctSeeds))
	}
	if coalesced.Value > 0 && len(dupJobIDs) == int(dupCallers) {
		t.Errorf("coalesced submissions (%v) did not share job IDs: %d distinct IDs from %d duplicate callers",
			coalesced.Value, len(dupJobIDs), dupCallers)
	}
}

// TestDaemonAdmissionControl fills the in-flight bound with blocking jobs
// and asserts overflow submissions get 429 with a Retry-After, while an
// identical duplicate of a live job still coalesces (coalescing needs no
// admission slot).
func TestDaemonAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	jobKinds["testblock"] = func(_ *experiments.Suite, _ jobParams) (any, error) {
		<-release
		return "done", nil
	}
	defer delete(jobKinds, "testblock")

	reg := telemetry.NewRegistry()
	r := newRunner(experiments.SuiteConfig{NNTrainSamples: 60, Workers: 2}, reg, 2)
	srv := httptest.NewServer(newMux(r, reg, false))
	defer func() {
		srv.Close()
		r.wait()
	}()
	defer close(release)

	first, resp := postCampaign(t, srv.URL, `{"kind":"testblock","seed":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	if _, resp = postCampaign(t, srv.URL, `{"kind":"testblock","seed":2}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d", resp.StatusCode)
	}

	// Third distinct request: over the bound, rejected with retry advice.
	_, resp = postCampaign(t, srv.URL, `{"kind":"testblock","seed":3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response has no Retry-After header")
	}

	// A duplicate of a live job coalesces even at capacity.
	dup, resp := postCampaign(t, srv.URL, `{"kind":"testblock","seed":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("duplicate-at-capacity submit = %d, want 202", resp.StatusCode)
	}
	if dup.ID != first.ID {
		t.Errorf("duplicate got job %q, want the live job %q", dup.ID, first.ID)
	}

	snap := reg.Snapshot()
	if rejected, ok := snap.Get("dcrm_daemon_jobs_rejected_total"); !ok || rejected.Value != 1 {
		t.Errorf("rejected counter = %v, want 1", rejected)
	}
	if coalesced, ok := snap.Get("dcrm_daemon_jobs_coalesced_total"); !ok || coalesced.Value != 1 {
		t.Errorf("coalesced counter = %v, want 1", coalesced)
	}
}
