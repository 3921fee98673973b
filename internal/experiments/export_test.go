package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestExportCreatesParentDirs pins the output-path contract the CLI flags
// rely on: -csv may point at a directory that does not exist yet (nested
// arbitrarily deep) and the exporter creates it rather than failing. Every
// repro form passes its -csv flag straight through here.
func TestExportCreatesParentDirs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out", "nested", "csv")
	if err := ExportFig2CSV(dir); err != nil {
		t.Fatalf("export into missing nested dir: %v", err)
	}
	fi, err := os.Stat(filepath.Join(dir, "fig2_l2_trend.csv"))
	if err != nil {
		t.Fatalf("exported file missing: %v", err)
	}
	if fi.Size() == 0 {
		t.Error("exported file is empty")
	}
}
