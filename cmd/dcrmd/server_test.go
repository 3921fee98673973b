package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// newTestServer builds a daemon with a fast suite (tiny NN training set)
// and serves it from httptest. The in-flight bound is generous so only the
// dedicated admission-control test exercises 429s.
func newTestServer(t *testing.T) (*httptest.Server, *runner) {
	t.Helper()
	reg := telemetry.NewRegistry()
	r := newRunner(experiments.SuiteConfig{NNTrainSamples: 60, Workers: 2}, reg, 64)
	srv := httptest.NewServer(newMux(r, reg, false))
	t.Cleanup(func() {
		srv.Close()
		r.wait()
	})
	return srv, r
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", url, err)
		}
	}
	return resp
}

// TestDaemonEndToEnd drives the whole loop: health on an idle daemon,
// campaign submission, polling to completion, the results payload, and the
// live Prometheus counters the background run produced.
func TestDaemonEndToEnd(t *testing.T) {
	srv, _ := newTestServer(t)

	// Idle daemon: healthy, suite not yet built.
	var rep healthReport
	if resp := getJSON(t, srv.URL+"/healthz", &rep); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
	if rep.Status != "healthy" {
		t.Fatalf("idle daemon reports %q", rep.Status)
	}
	suiteState := ""
	for _, c := range rep.Components {
		if c.Name == "suite" {
			suiteState = c.Health
		}
	}
	if suiteState != "initializing" {
		t.Errorf("idle suite component = %q, want initializing", suiteState)
	}

	// Submit a small fig6 campaign.
	body := `{"kind":"fig6","apps":["P-BICG"],"runs":8,"seed":3}`
	resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted job
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/campaigns = %d", resp.StatusCode)
	}
	if submitted.ID == "" || submitted.Kind != "fig6" {
		t.Fatalf("bad submission response: %+v", submitted)
	}

	// Poll until the background runner finishes it.
	deadline := time.Now().Add(2 * time.Minute)
	var finished job
	for {
		getJSON(t, srv.URL+"/v1/campaigns/"+submitted.ID, &finished)
		if finished.State == stateDone || finished.State == stateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck in state %q", finished.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if finished.State != stateDone {
		t.Fatalf("campaign failed: %s", finished.Error)
	}
	if finished.Result == nil {
		t.Fatal("finished campaign has no result")
	}
	cells, ok := finished.Result.([]any)
	if !ok || len(cells) == 0 {
		t.Fatalf("fig6 result is not a non-empty array: %T", finished.Result)
	}

	// The job listing shows it done, without the result payload.
	var listing struct {
		Experiments []job `json:"experiments"`
	}
	getJSON(t, srv.URL+"/v1/experiments", &listing)
	if len(listing.Experiments) != 1 {
		t.Fatalf("listing has %d jobs, want 1", len(listing.Experiments))
	}
	if got := listing.Experiments[0]; got.State != stateDone || got.Result != nil {
		t.Errorf("listing entry = state %q result %v, want done with elided result", got.State, got.Result)
	}

	// The background run filled the registry: campaign outcomes and daemon
	// job counters are on /metrics in Prometheus text format.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	metrics := buf.String()
	for _, want := range []string{
		"# TYPE dcrm_fault_runs_total counter",
		`dcrm_daemon_jobs_total{kind="fig6"} 1`,
		`dcrm_daemon_jobs_finished_total{state="done"} 1`,
		"dcrm_experiment_tasks_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Health now reports the suite as built.
	getJSON(t, srv.URL+"/healthz", &rep)
	for _, c := range rep.Components {
		if c.Name == "suite" && c.Health != "healthy" {
			t.Errorf("suite component = %q after a campaign, want healthy", c.Health)
		}
	}
}

func TestDaemonRejectsUnknownKind(t *testing.T) {
	srv, _ := newTestServer(t)

	resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"kind":"fig42"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kind = %d, want 400", resp.StatusCode)
	}

	resp2, err := http.Post(srv.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{not json`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", resp2.StatusCode)
	}
}

// TestDaemonRejectsUnknownFields: a campaign request that could only run
// with defaults, or fail later as a background job, fails closed at
// submission and registers no job. A field the API does not declare (the
// removed "batch" knob, or a typo such as "run"), data after the JSON
// object, a negative run count or an unknown application is a 400, and a
// body over maxRequestBytes is a 413.
func TestDaemonRejectsUnknownFields(t *testing.T) {
	srv, r := newTestServer(t)
	for _, c := range []struct {
		body string
		want int
	}{
		{`{"kind":"fig6","batch":8}`, http.StatusBadRequest},
		{`{"kind":"fig6","run":5}`, http.StatusBadRequest},
		{`{"kind":"fig7","apps":["P-BICG"]} {"kind":"bogus"}`, http.StatusBadRequest},
		{`{"kind":"fig7","apps":["P-BICG"]}garbage`, http.StatusBadRequest},
		{`{"kind":"fig6","apps":["P-BICG"],"runs":-5}`, http.StatusBadRequest},
		{`{"kind":"fig6","apps":["P-NOPE"],"runs":4}`, http.StatusBadRequest},
		{`{"kind":"fig7","apps":["P-BICG"]}` + strings.Repeat(" ", maxRequestBytes), http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("POST %.60q = %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
	if n := len(r.list()); n != 0 {
		t.Errorf("rejected requests registered %d jobs, want 0", n)
	}
}

func TestDaemonUnknownCampaign(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/campaigns/job-999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id = %d, want 404", resp.StatusCode)
	}
}

// TestDaemonBreakdownKind drives the fault-model breakdown job: model-spec
// validation at submission time, the background run, and DUE counts
// surfacing in the JSON result.
func TestDaemonBreakdownKind(t *testing.T) {
	srv, _ := newTestServer(t)

	// Malformed and misplaced model specs fail fast with 400, before any
	// background work starts.
	for _, body := range []string{
		`{"kind":"breakdown","models":["flaky"]}`,
		`{"kind":"breakdown","models":["transient:flips=two"]}`,
		`{"kind":"fig6","models":["transient"]}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}

	body := `{"kind":"breakdown","apps":["P-BICG"],"runs":6,"seed":3,"models":["transient:flips=2"]}`
	resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted job
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST breakdown = %d", resp.StatusCode)
	}

	deadline := time.Now().Add(2 * time.Minute)
	var finished job
	for {
		getJSON(t, srv.URL+"/v1/campaigns/"+submitted.ID, &finished)
		if finished.State == stateDone || finished.State == stateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breakdown stuck in state %q", finished.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if finished.State != stateDone {
		t.Fatalf("breakdown failed: %s", finished.Error)
	}
	cells, ok := finished.Result.([]any)
	if !ok || len(cells) != 3 { // baseline + two schemes × one model
		t.Fatalf("breakdown result = %T with %d cells, want 3", finished.Result, len(cells))
	}
	// Every cell carries the full outcome taxonomy, DUE included, and the
	// model identity that produced it.
	for _, raw := range cells {
		cell, ok := raw.(map[string]any)
		if !ok {
			t.Fatalf("cell is %T", raw)
		}
		res, ok := cell["Result"].(map[string]any)
		if !ok {
			t.Fatalf("cell result is %T", cell["Result"])
		}
		if _, ok := res["DUERuns"]; !ok {
			t.Errorf("cell result has no DUERuns field: %v", res)
		}
		model, ok := cell["Model"].(map[string]any)
		if !ok || model["Name"] != "transient" {
			t.Errorf("cell model = %v, want transient", cell["Model"])
		}
	}
}

// TestPprofGatedByFlag pins the profiling surface's opt-in contract: with
// -pprof off (the default) every /debug/pprof path is an unknown route and
// 404s; with it on, the index and the cheap sub-profiles serve.
func TestPprofGatedByFlag(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := newRunner(experiments.SuiteConfig{NNTrainSamples: 60, Workers: 2}, reg, 64)
	off := httptest.NewServer(newMux(r, reg, false))
	defer off.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/cmdline"} {
		resp, err := http.Get(off.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with pprof disabled = %d, want 404", path, resp.StatusCode)
		}
	}

	on := httptest.NewServer(newMux(r, reg, true))
	defer on.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/goroutine"} {
		resp, err := http.Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s with pprof enabled = %d, want 200", path, resp.StatusCode)
		}
	}
	r.wait()
}
