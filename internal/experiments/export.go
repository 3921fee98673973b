package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"github.com/datacentric-gpu/dcrm/internal/core"
	"github.com/datacentric-gpu/dcrm/internal/fault"
)

// writeCSV writes one CSV file under dir.
func writeCSV(dir, name string, header []string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: export: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("experiments: export: %w", err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
func fmtI(v int) string     { return strconv.Itoa(v) }

// outcomeHeader returns the campaign-outcome column names in the canonical
// fault.Outcomes() order. Every campaign CSV exporter shares it (and
// outcomeColumns), so column order is deterministic by construction —
// never derived from map iteration — and pinned by the export golden test.
func outcomeHeader() []string {
	outs := fault.Outcomes()
	names := make([]string, len(outs))
	for i, o := range outs {
		names[i] = o.String()
	}
	return names
}

// outcomeColumns renders one campaign result's outcome counts in the same
// canonical order as outcomeHeader.
func outcomeColumns(r fault.Result) []string {
	outs := fault.Outcomes()
	cols := make([]string, len(outs))
	for i, o := range outs {
		cols[i] = fmtI(r.Count(o))
	}
	return cols
}

// ExportFig2CSV writes the Fig. 2 dataset as CSV for plotting.
func ExportFig2CSV(dir string) error {
	var rows [][]string
	for _, r := range Fig2L2Trend() {
		rows = append(rows, []string{r.Vendor, r.GPU, fmtI(r.Year), fmtI(r.L2KB)})
	}
	return writeCSV(dir, "fig2_l2_trend.csv", []string{"vendor", "gpu", "year", "l2_kb"}, rows)
}

// ExportFig3CSV writes each application's normalized read series.
func ExportFig3CSV(dir string, results []Fig3Result) error {
	var rows [][]string
	for _, r := range results {
		for i, v := range r.Series {
			rows = append(rows, []string{r.App, fmtI(i), fmtF(v)})
		}
	}
	return writeCSV(dir, "fig3_access_profiles.csv",
		[]string{"app", "block_rank", "normalized_reads"}, rows)
}

// ExportFig4CSV writes the warp-sharing series.
func ExportFig4CSV(dir string, results []Fig4Result) error {
	var rows [][]string
	for _, r := range results {
		for i, v := range r.Series {
			rows = append(rows, []string{r.App, fmtI(i), fmtF(v)})
		}
	}
	return writeCSV(dir, "fig4_warp_sharing.csv",
		[]string{"app", "block_rank", "warp_share_percent"}, rows)
}

// ExportTable3CSV writes the data-object inventory.
func ExportTable3CSV(dir string, rows3 []Table3Row) error {
	var rows [][]string
	for _, r := range rows3 {
		for rank, o := range r.Objects {
			rows = append(rows, []string{
				r.App, fmtI(rank), o.Name, strconv.FormatBool(o.Hot),
				strconv.FormatUint(o.Reads, 10),
				fmtF(r.HotSizePercent), fmtF(r.HotAccessPercent),
			})
		}
	}
	return writeCSV(dir, "table3_data_objects.csv",
		[]string{"app", "rank", "object", "hot", "reads", "hot_size_percent", "hot_access_percent"}, rows)
}

// ExportFig6CSV writes the hot-vs-rest campaign results. Outcome columns
// follow the canonical fault.Outcomes() order.
func ExportFig6CSV(dir string, cells []Fig6Cell) error {
	var rows [][]string
	for _, c := range cells {
		row := []string{c.App, c.Space, c.Model.Name, c.Model.Params, fmtI(c.Result.Runs)}
		rows = append(rows, append(row, outcomeColumns(c.Result)...))
	}
	header := append([]string{"app", "space", "model", "params", "runs"}, outcomeHeader()...)
	return writeCSV(dir, "fig6_hot_vs_rest.csv", header, rows)
}

// ExportFig7CSV writes the performance sweep.
func ExportFig7CSV(dir string, points []Fig7Point) error {
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			p.App, p.Scheme.String(), fmtI(p.Level),
			strconv.FormatInt(p.Cycles, 10),
			strconv.FormatUint(p.L1Misses, 10),
			fmtF(p.NormTime), fmtF(p.NormMisses),
		})
	}
	return writeCSV(dir, "fig7_overhead.csv",
		[]string{"app", "scheme", "objects", "cycles", "l1_misses", "norm_time", "norm_misses"}, rows)
}

// ExportFig9CSV writes the resilience campaign results. Outcome columns
// follow the canonical fault.Outcomes() order.
func ExportFig9CSV(dir string, cells []Fig9Cell) error {
	return exportCampaignGrid(dir, "fig9_resilience.csv", cells)
}

// ExportBreakdownCSV writes the fault-model × scheme outcome breakdown.
// Outcome columns follow the canonical fault.Outcomes() order.
func ExportBreakdownCSV(dir string, cells []Fig9Cell) error {
	return exportCampaignGrid(dir, "fault_model_breakdown.csv", cells)
}

// exportCampaignGrid writes one sweep's cells, one row per campaign.
func exportCampaignGrid(dir, name string, cells []Fig9Cell) error {
	var rows [][]string
	for _, c := range cells {
		scheme := c.Scheme.String()
		if c.Scheme == core.None {
			scheme = "baseline"
		}
		row := []string{c.App, scheme, fmtI(c.Level), c.Model.Name, c.Model.Params, fmtI(c.Result.Runs)}
		rows = append(rows, append(row, outcomeColumns(c.Result)...))
	}
	header := append([]string{"app", "scheme", "objects", "model", "params", "runs"}, outcomeHeader()...)
	return writeCSV(dir, name, header, rows)
}
