package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"

	"github.com/datacentric-gpu/dcrm/internal/telemetry"
	"github.com/datacentric-gpu/dcrm/internal/version"
)

// componentHealth is one entry of the /healthz report, in the style of
// gpud: a named subsystem with a coarse health state and a human message.
type componentHealth struct {
	Name    string `json:"name"`
	Health  string `json:"health"`
	Message string `json:"message,omitempty"`
}

// healthReport is the /healthz body.
type healthReport struct {
	Status     string            `json:"status"`
	Version    string            `json:"version"`
	Components []componentHealth `json:"components"`
}

// newMux wires the daemon's HTTP surface:
//
//	GET  /healthz            gpud-style component health
//	GET  /metrics            Prometheus text exposition of reg
//	GET  /v1/experiments     all submitted jobs (without results)
//	POST /v1/campaigns       submit a campaign: {"kind":"fig6","runs":100,...}
//	GET  /v1/campaigns/{id}  one job, result included once done
//	/debug/pprof/*           Go runtime profiling, only when enablePprof
//
// The pprof surface is off by default (the -pprof flag): profiling
// endpoints expose goroutine stacks and heap contents and can run
// CPU-consuming captures, so an operator must opt in before they exist on
// a listening daemon. When disabled the paths 404 like any other unknown
// route.
func newMux(r *runner, reg *telemetry.Registry, enablePprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	if enablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, health(r))
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			// Headers are gone; nothing to do but drop the connection.
			return
		}
	})

	mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"experiments": r.list()})
	})

	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, req *http.Request) {
		creq, err := decodeCampaignRequest(http.MaxBytesReader(w, req.Body, maxRequestBytes))
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		j, err := r.submit(creq)
		if errors.Is(err, errOverloaded) {
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusTooManyRequests, err.Error())
			return
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusAccepted, j)
	})

	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, req *http.Request) {
		j, ok := r.get(req.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no campaign %q", req.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, j)
	})

	return mux
}

// health assembles the component report. The suite component reflects lazy
// construction: "initializing" until the first campaign forces the build.
func health(r *runner) healthReport {
	rep := healthReport{Status: "healthy", Version: version.String()}

	suiteHealth := componentHealth{Name: "suite", Health: "initializing",
		Message: "experiment suite builds on first campaign"}
	r.mu.Lock()
	built, buildErr := r.suite != nil, r.suiteErr
	r.mu.Unlock()
	switch {
	case buildErr != nil:
		suiteHealth.Health = "unhealthy"
		suiteHealth.Message = buildErr.Error()
		rep.Status = "unhealthy"
	case built:
		suiteHealth.Health = "healthy"
		suiteHealth.Message = ""
	}
	rep.Components = append(rep.Components, suiteHealth)

	counts := r.counts()
	jobsHealth := componentHealth{Name: "jobs", Health: "healthy",
		Message: fmt.Sprintf("%d running, %d done, %d failed",
			counts[stateRunning]+counts[statePending], counts[stateDone], counts[stateFailed])}
	rep.Components = append(rep.Components, jobsHealth)
	return rep
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
