package executor

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"samzasql/internal/sql/types"
	"samzasql/internal/sql/udf"
)

func TestExplainAnalyze(t *testing.T) {
	e, _ := testEngine(t, 2, 300)
	out, err := e.ExplainAnalyze(context.Background(), "SELECT STREAM * FROM Orders WHERE units > 50", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Filter", "messages processed", "stage", "p95(us)", "filter"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}
	// The observed tuple counts come from live operator metrics: the filter
	// stage must report non-zero output for this predicate.
	if !strings.Contains(out, "300 messages processed") {
		t.Errorf("EXPLAIN ANALYZE did not drain the backlog:\n%s", out)
	}

	if _, err := e.ExplainAnalyze(context.Background(), "SELECT * FROM Orders", time.Second); err == nil {
		t.Fatal("EXPLAIN ANALYZE on a bounded query should error")
	}
}

// spinPerCall is how long SPIN(x) busy-waits before returning x.
const spinPerCall = 50 * time.Microsecond

var registerSpinOnce sync.Once

// registerSpinUDF installs SPIN(x), a scalar that returns x after spinning
// for spinPerCall: a projection stage made slow on purpose.
func registerSpinUDF(t *testing.T) {
	t.Helper()
	registerSpinOnce.Do(func() {
		err := udf.RegisterScalar(&udf.Scalar{
			Name: "SPIN", MinArgs: 1, MaxArgs: 1,
			ResultType: func(args []types.Type) (types.Type, error) { return args[0], nil },
			Eval: func(args []any) (any, error) {
				for start := time.Now(); time.Since(start) < spinPerCall; {
				}
				return args[0], nil
			},
		})
		if err != nil {
			panic(err)
		}
	})
}

// spinQuery filters, then projects through SPIN: only the projection is
// slow.
const spinQuery = "SELECT STREAM productId, SPIN(units) AS u FROM Orders WHERE units > 50"

// TestSlowStageNamedByOperatorMetrics seeds a slow projection (SPIN spins
// about 50 µs per row) into a streaming filter/project query and requires
// both per-stage surfaces to name it: the EXPLAIN ANALYZE table and the
// job's operator.<stage>.process-ns histograms must give the projection the
// largest p99, at least twice any other stage's. Which stage is slow has to
// be answerable from the operator metrics alone, so a stage's time must be
// its own: a filter timed with the projection it emits into would tie it.
func TestSlowStageNamedByOperatorMetrics(t *testing.T) {
	registerSpinUDF(t)

	e, _ := testEngine(t, 2, 300)
	out, err := e.ExplainAnalyze(context.Background(), spinQuery, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p99 := map[string]float64{}
	inTable := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && f[0] == "stage" {
			inTable = true
			continue
		}
		if !inTable || len(f) != 6 {
			continue
		}
		v, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			t.Fatalf("EXPLAIN ANALYZE row %q: p99 %q: %v", line, f[4], err)
		}
		p99[f[0]] = v
	}
	if got := standout(p99); got != "project" {
		t.Errorf("EXPLAIN ANALYZE singles out %q as the slowest stage (p99 us %v), want project:\n%s", got, p99, out)
	}

	e, _ = testEngine(t, 2, 300)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, job, err := e.ExecuteStream(ctx, spinQuery)
	if err != nil {
		t.Fatal(err)
	}
	waitForCount(t, 10*time.Second, func() int {
		return int(job.Main.MetricsSnapshot().Counters["messages-processed"])
	}, 300, "processed orders")
	job.Stop()
	snap := job.Main.MetricsSnapshot()
	p99 = map[string]float64{}
	for name, h := range snap.Histograms {
		if stage, ok := strings.CutPrefix(name, "operator."); ok && strings.HasSuffix(stage, ".process-ns") {
			p99[strings.TrimSuffix(stage, ".process-ns")] = float64(h.P99)
		}
	}
	if got := standout(p99); got != "project" {
		t.Errorf("operator process-ns histograms single out %q as the slowest stage (p99 ns %v), want project", got, p99)
	}
	if min := float64(spinPerCall.Nanoseconds()); p99["project"] < min {
		t.Errorf("project p99 %.0f ns, below one SPIN call (%v)", p99["project"], spinPerCall)
	}
}

// standout returns the stage whose p99 is at least twice every other
// stage's, or "" when no stage stands out.
func standout(p99 map[string]float64) string {
	for stage, v := range p99 {
		out := v > 0
		for other, w := range p99 {
			if other != stage && v < 2*w {
				out = false
			}
		}
		if out {
			return stage
		}
	}
	return ""
}
