package experiments

import (
	"runtime"
	"testing"

	"github.com/datacentric-gpu/dcrm/internal/simt"
)

// heapGrowth returns how much the live heap grows across build: what build
// leaves reachable, measured after a full collection on either side.
func heapGrowth(build func()) int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	build()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc) - int64(before)
}

// TestFootprintEstimatesMatchHeap calibrates the two size estimates the
// store's memory tier accounts recordings at against the heap they hold:
// for C-NN and A-SRAD at small scale, the golden recording's
// simt.CaptureLog.ApproxBytes and the traces' traceFootprint must each lie
// within ±15% of the live-heap growth that building them leaves behind.
func TestFootprintEstimatesMatchHeap(t *testing.T) {
	s := testSuite(t)
	for _, name := range []string{"C-NN", "A-SRAD"} {
		app, err := s.App(name)
		if err != nil {
			t.Fatal(err)
		}
		var log *simt.CaptureLog
		recorded := heapGrowth(func() { log, err = app.CaptureRun(app.Mem.Fork()) })
		if err != nil {
			t.Fatal(err)
		}
		var traces []*simt.KernelTrace
		traced := heapGrowth(func() { traces, err = app.TraceRun() })
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what           string
			estimate, heap int64
		}{
			{"recording ApproxBytes", log.ApproxBytes(), recorded},
			{"traceFootprint", traceFootprint(traces), traced},
		} {
			t.Logf("%s %s: %.2f MB, heap %.2f MB", name, c.what, float64(c.estimate)/1e6, float64(c.heap)/1e6)
			if d := float64(c.estimate-c.heap) / float64(c.heap); d < -0.15 || d > 0.15 {
				t.Errorf("%s %s is %+.0f%% off the heap it holds", name, c.what, 100*d)
			}
		}
		runtime.KeepAlive(log)
		runtime.KeepAlive(traces)
	}
}
