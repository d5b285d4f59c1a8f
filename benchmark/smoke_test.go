package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Every workload end to end at a size that keeps `go test` fast: warm-up,
// untraced and traced drain of 5 000 rows, the single-layer measurements,
// one setup and one 300 ms rung. Long runs are for `bash benchmark/run.sh`.
func TestSmoke(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, w := range workloads {
		p := plan{
			drainRows: 5000,
			drainReps: 1,
			setupReps: 1,
			rungs:     []rungPlan{{name: "mid", rate: 10_000, length: 300 * time.Millisecond}},
			serial:    true,
			traced:    true,
		}
		rep, err := runWorkload(w, 1, p, out)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 || rep.Metrics["failed_share"].Value != 0 {
			t.Errorf("%s: %d of %d failed: %v", w.name, rep.Failed, rep.Attempted, rep.Problems)
		}
		for _, want := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
			if _, err := resultLine(rep, want); err != nil {
				t.Error(err)
			}
		}
		for _, name := range []string{"sustained_rows_per_s", "failed_share", "trace_overhead_pct"} {
			if _, ok := rep.Metrics[name]; !ok {
				t.Errorf("%s: metric %s missing", w.name, name)
			}
		}
		kvOps := rep.Metrics["kv.gets_per_row"].Value + rep.Metrics["kv.puts_per_row"].Value
		if stateless := w.name == "filter"; stateless != (kvOps == 0) {
			t.Errorf("%s: %.2f store operations per row", w.name, kvOps)
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
}
