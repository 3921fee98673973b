package main

import (
	"flag"
	"fmt"
	"io"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/experiments"
	"github.com/datacentric-gpu/dcrm/internal/telemetry"
	"github.com/datacentric-gpu/dcrm/internal/timing"
)

// simCmd is `repro sim`: one application on the cycle-level timing
// simulator, with per-kernel statistics. The run is served through the
// suite's result store unless -trace asks for a timeline, which needs a
// live engine.
type simCmd struct {
	app, schemeName, schedulerName, trace string
	level                                 int
	scheme                                core.Scheme
	policy                                timing.SchedulerPolicy
}

func (c *simCmd) register(fs *flag.FlagSet) {
	fs.StringVar(&c.app, "app", "P-BICG", "application (see repro profile -list)")
	fs.StringVar(&c.schemeName, "scheme", "none", "protection scheme: none, detection, correction")
	fs.IntVar(&c.level, "level", -1, "protected data objects, cumulative (-1 = hot objects)")
	fs.StringVar(&c.schedulerName, "scheduler", "gto", "warp scheduler: gto or lrr")
	fs.StringVar(&c.trace, "trace", "", "write a Chrome trace_event timeline (load in chrome://tracing or Perfetto) to this file")
}

func (c *simCmd) check() (err error) {
	if c.policy, err = parseScheduler(c.schedulerName); err != nil {
		return err
	}
	c.scheme, err = core.ParseScheme(c.schemeName)
	return err
}

// parseScheduler maps the -scheduler flag to a warp-scheduling policy,
// rejecting anything but the two the engine implements.
func parseScheduler(name string) (timing.SchedulerPolicy, error) {
	switch name {
	case "gto":
		return timing.GTO, nil
	case "lrr":
		return timing.LRR, nil
	}
	return 0, fmt.Errorf("unknown scheduler %q (want gto or lrr)", name)
}

func (c *simCmd) run(s *experiments.Suite, w io.Writer) error {
	app, err := s.App(c.app)
	if err != nil {
		return err
	}
	cfg := experiments.SimConfig{App: app.Name, Scheme: c.scheme, Level: c.level, Policy: c.policy}
	if cfg.Level < 0 {
		cfg.Level = app.HotCount
	}
	cp, err := s.Checkpoint(cfg.App, cfg.Scheme, cfg.Level)
	if err != nil {
		return err
	}
	if cp.Plan != nil {
		fmt.Fprintln(w, "Protection:", cp.Plan.Describe())
	} else {
		fmt.Fprintln(w, "Protection: baseline (no protection)")
	}
	var st timing.AppStats
	if c.trace == "" {
		st, err = experiments.Simulate(s, cfg)
		if err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "Tracing %s (functional run)…\n", app.Name)
		var tr *telemetry.Trace
		tr, st, err = experiments.TraceApp(s, cfg)
		if err != nil {
			return err
		}
		if err := writeFile(c.trace, tr.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "Wrote %d trace events to %s\n", tr.Len(), c.trace)
	}

	var rows [][]string
	for _, k := range st.Kernels {
		rows = append(rows, []string{
			k.Kernel,
			fmt.Sprintf("%d", k.Cycles),
			fmt.Sprintf("%d", k.Instructions),
			fmt.Sprintf("%d", k.L1.Reads),
			fmt.Sprintf("%d", k.L1.ReadMisses),
			fmt.Sprintf("%.1f%%", 100*k.L1.ReadHitRate()),
			fmt.Sprintf("%.1f%%", 100*k.L2.ReadHitRate()),
			fmt.Sprintf("%d", k.DRAM.Served),
			fmt.Sprintf("%d", k.CopyTransactions),
		})
	}
	fmt.Fprint(w, experiments.RenderTable(
		[]string{"kernel", "cycles", "instrs", "L1 reads", "L1 misses", "L1 hit", "L2 hit", "DRAM", "copy tx"},
		rows,
	))
	fmt.Fprintf(w, "\nTotal: %d cycles, %d L1-missed accesses, IPC %.2f\n",
		st.TotalCycles(), st.TotalL1Misses(),
		float64(st.TotalInstructions())/float64(st.TotalCycles()))
	if cp.Plan != nil {
		cost := cp.Plan.Cost()
		fmt.Fprintf(w, "Hardware cost: %d B tables, %d-bit comparator, %d B replica DRAM\n",
			cost.AddrTableBytes+cost.LoadTableBytes+cost.CompareBufferBytes, cost.ComparatorBits, cost.ReplicaBytes)
	}
	return nil
}
