package experiments

import (
	"fmt"

	"github.com/datacentric-gpu/dcrm/internal/arch"
	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
	"github.com/datacentric-gpu/dcrm/internal/timing"
)

// TraceApp replays one (application, scheme, level) timing configuration —
// the unit of the Fig. 7 sweep — with a Chrome trace recorder attached,
// returning the timeline (per-SM, per-L2-bank, and per-DRAM-channel lanes)
// and the run's stats. Write the trace with Trace.WriteJSON and open it in
// chrome://tracing or Perfetto.
func TraceApp(s *Suite, name string, scheme core.Scheme, level int) (*telemetry.Trace, timing.AppStats, error) {
	traces, err := s.Traces(name)
	if err != nil {
		return nil, timing.AppStats{}, err
	}
	var tplan timing.ProtectionPlan
	if scheme != core.None && level > 0 {
		_, plan, err := s.PlanFor(name, scheme, level)
		if err != nil {
			return nil, timing.AppStats{}, err
		}
		if plan != nil {
			tplan = plan
		}
	}
	eng, err := timing.New(arch.Default(), tplan)
	if err != nil {
		return nil, timing.AppStats{}, fmt.Errorf("experiments: trace %s %v L%d: %w", name, scheme, level, err)
	}
	eng.Trace = telemetry.NewTrace()
	eng.Metrics = s.cfg.Telemetry
	st, err := eng.RunApp(name, traces)
	if err != nil {
		return nil, timing.AppStats{}, fmt.Errorf("experiments: trace %s %v L%d: %w", name, scheme, level, err)
	}
	return eng.Trace, st, nil
}
