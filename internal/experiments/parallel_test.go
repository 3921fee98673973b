package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/fault"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
)

// twoSuites builds one serial and one 8-worker suite with otherwise
// identical configuration.
func twoSuites(t *testing.T) (serial, parallel *Suite) {
	t.Helper()
	var err error
	serial, err = NewSuite(SuiteConfig{NNTrainSamples: 60, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err = NewSuite(SuiteConfig{NNTrainSamples: 60, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	return serial, parallel
}

// TestParallelMatchesSerial asserts the tentpole invariant: every
// experiment returns deeply equal results at Workers=1 and Workers=8 —
// per-task seed derivation and index-ordered assembly make worker
// scheduling invisible in the output.
func TestParallelMatchesSerial(t *testing.T) {
	serial, parallel := twoSuites(t)

	f3s, err := Fig3AccessProfiles(serial, 20)
	if err != nil {
		t.Fatal(err)
	}
	f3p, err := Fig3AccessProfiles(parallel, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f3s, f3p) {
		t.Error("Fig3: parallel results differ from serial")
	}

	f4s, err := Fig4WarpSharing(serial, 20)
	if err != nil {
		t.Fatal(err)
	}
	f4p, err := Fig4WarpSharing(parallel, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f4s, f4p) {
		t.Error("Fig4: parallel results differ from serial")
	}

	t3s, err := Table3DataObjects(serial)
	if err != nil {
		t.Fatal(err)
	}
	t3p, err := Table3DataObjects(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t3s, t3p) {
		t.Error("Table3: parallel results differ from serial")
	}

	f6cfg := Fig6Config{
		Runs:   24,
		Apps:   []string{"P-BICG", "A-Laplacian"},
		Models: []fault.Model{fault.StuckAt{BitsPerWord: 2, Blocks: 1}, fault.StuckAt{BitsPerWord: 4, Blocks: 5}},
	}
	f6s, err := Fig6HotVsRest(serial, f6cfg)
	if err != nil {
		t.Fatal(err)
	}
	f6p, err := Fig6HotVsRest(parallel, f6cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f6s, f6p) {
		t.Error("Fig6: parallel results differ from serial")
	}

	f7cfg := Fig7Config{Apps: []string{"P-BICG", "P-MVT"}}
	f7s, err := Fig7Overhead(serial, f7cfg)
	if err != nil {
		t.Fatal(err)
	}
	f7p, err := Fig7Overhead(parallel, f7cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f7s, f7p) {
		t.Error("Fig7: parallel results differ from serial")
	}

	f9cfg := Fig9Config{
		Runs:   24,
		Apps:   []string{"P-BICG"},
		Models: []fault.Model{fault.StuckAt{BitsPerWord: 3, Blocks: 5}},
	}
	f9s, err := Fig9Resilience(serial, f9cfg)
	if err != nil {
		t.Fatal(err)
	}
	f9p, err := Fig9Resilience(parallel, f9cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f9s, f9p) {
		t.Error("Fig9: parallel results differ from serial")
	}
}

// TestTelemetryDoesNotPerturbResults asserts the observation invariant at
// the suite level: a telemetry-observed parallel suite produces results
// deeply equal to an unobserved serial one, while the registry fills with
// fan-out and campaign counters.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	serial, err := NewSuite(SuiteConfig{NNTrainSamples: 60, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	observed, err := NewSuite(SuiteConfig{NNTrainSamples: 60, Workers: 8, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}

	f6cfg := Fig6Config{
		Runs:   24,
		Apps:   []string{"P-BICG"},
		Models: []fault.Model{fault.StuckAt{BitsPerWord: 2, Blocks: 1}},
	}
	f6s, err := Fig6HotVsRest(serial, f6cfg)
	if err != nil {
		t.Fatal(err)
	}
	f6o, err := Fig6HotVsRest(observed, f6cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f6s, f6o) {
		t.Error("Fig6: telemetry-observed results differ from unobserved serial run")
	}

	f7cfg := Fig7Config{Apps: []string{"P-MVT"}}
	f7s, err := Fig7Overhead(serial, f7cfg)
	if err != nil {
		t.Fatal(err)
	}
	f7o, err := Fig7Overhead(observed, f7cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f7s, f7o) {
		t.Error("Fig7: telemetry-observed results differ from unobserved serial run")
	}

	snap := reg.Snapshot()
	if s, ok := snap.Get("dcrm_fault_runs_total", telemetry.Label{Name: "outcome", Value: "masked"}); !ok || s.Value == 0 {
		t.Errorf("campaign outcome counters not published: %+v", s)
	}
	var tasks float64
	for _, s := range snap {
		if s.Name == "dcrm_experiment_tasks_total" {
			tasks += s.Value
		}
	}
	if tasks == 0 {
		t.Error("fan-out task counters not published")
	}
	if s, ok := snap.Get("dcrm_timing_kernels_total"); !ok || s.Value == 0 {
		t.Errorf("timing engine counters not published: %+v", s)
	}
}

// TestProgressEvents asserts the progress stream is serialized, counts
// monotonically per phase, and reaches Done == Total for every phase.
func TestProgressEvents(t *testing.T) {
	var events []ProgressEvent
	s, err := NewSuite(SuiteConfig{
		NNTrainSamples: 60,
		Workers:        4,
		Progress:       func(ev ProgressEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Table3DataObjects(s); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events delivered")
	}
	last := make(map[string]ProgressEvent)
	for _, ev := range events {
		if prev, ok := last[ev.Phase]; ok {
			if ev.Done != prev.Done+1 || ev.Total != prev.Total {
				t.Fatalf("non-monotonic progress: %+v after %+v", ev, prev)
			}
		} else if ev.Done != 1 {
			t.Fatalf("phase %q started at Done=%d", ev.Phase, ev.Done)
		}
		last[ev.Phase] = ev
	}
	for phase, ev := range last {
		if ev.Done != ev.Total {
			t.Errorf("phase %q finished at %d/%d", phase, ev.Done, ev.Total)
		}
	}
}

// TestRunTasksError asserts a failing task aborts the fan-out and
// surfaces its error to the caller.
func TestRunTasksError(t *testing.T) {
	s, err := NewSuite(SuiteConfig{NNTrainSamples: 60, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	probe := &probeError{"probe"}
	if err := s.runTasks("test: error probe", 16, func(i int) error {
		if i == 3 {
			return probe
		}
		return nil
	}); err != probe {
		t.Fatalf("runTasks error = %v, want the probe error", err)
	}
}

type probeError struct{ msg string }

func (e *probeError) Error() string { return e.msg }

// TestSuiteContextCancelsCampaigns: a cancelled suite context aborts
// in-flight experiment work (the daemon's graceful-shutdown contract).
func TestSuiteContextCancelsCampaigns(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := NewSuite(SuiteConfig{NNTrainSamples: 60, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	_, err = Fig6HotVsRest(s, Fig6Config{Runs: 50, Apps: []string{"P-BICG"}})
	if err == nil {
		t.Fatal("cancelled suite ran a figure to completion")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}
