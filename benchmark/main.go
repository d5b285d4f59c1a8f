// Command benchmark is the repository's regression benchmark: four standing
// streaming-SQL queries, each drained from a backlog, started from nothing
// and fed open loop at fixed rates, with every output row checked against a
// reference. README.md defines the metrics and how to read them.
//
//	bash benchmark/run.sh                                  # all workloads, full length
//	bash benchmark/run.sh -trace 1                         # per-layer metrics and span files
//	bash benchmark/run.sh -selfcheck                       # full suite twice, compared
//	bash benchmark/run.sh --workload filter --seed 1 --seconds 14 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Phase sizes of the full suite. The single-workload form scales its phases
// from --seconds instead (driverPlan).
const (
	fullDrainReps  = 5
	fullSetupReps  = 5
	fullRungWarmup = time.Second
	fullRungLength = 8 * time.Second
	// nominalSeconds is the --seconds value at which a single-workload run
	// drains each workload's full drainRows.
	nominalSeconds = 14
	driverReps     = 3
	setupBudget    = 1500 * time.Millisecond
	maxSetupReps   = 200
)

// spec is BENCHMARK.json: the names, units and regression bounds of the
// metrics this program must print.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
	// dir is where BENCHMARK.json was found: the root of the checkout.
	dir string
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec() (*spec, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		s := &spec{dir: dir}
		if err := json.Unmarshal(data, s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// metric is one named number of a report.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many measurements the value summarises.
	Samples int `json:"samples"`
}

// report is everything one workload run measured.
type report struct {
	Workload  string            `json:"workload"`
	Metrics   map[string]metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	// Problems lists why the run must not be trusted: failed rows, and rungs
	// whose generator fell behind its schedule.
	Problems []string `json:"problems,omitempty"`
	names    []string
}

func (r *report) set(name string, value float64, unit string, samples int) {
	if _, ok := r.Metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.Metrics[name] = metric{value, unit, samples}
}

// print writes every metric by name, with unit, sample count and, for a
// gated metric, its regression bound.
func (r *report) print(s *spec) {
	bounds := map[string]metricSpec{}
	for _, m := range s.EndToEnd {
		bounds[m.Name] = m
	}
	for _, name := range r.names {
		m := r.Metrics[name]
		line := fmt.Sprintf("%-12s %-44s %16.4f %-7s n=%d", r.Workload, name, m.Value, m.Unit, m.Samples)
		if b, ok := bounds[name]; ok {
			line += fmt.Sprintf("  bound=%.0f%% (%s is better)", b.Bound*100, b.Better)
		}
		fmt.Println(line)
	}
	for _, p := range r.Problems {
		fmt.Printf("%-12s PROBLEM %s\n", r.Workload, p)
	}
}

// plan says how much of each phase one workload run does.
type plan struct {
	drainRows int
	drainReps int
	// Setup repeats setupReps times, and then on until setupBudget is spent
	// or maxSetupReps is reached: a setup of a millisecond needs many
	// repetitions for a steady median, one of a quarter second allows few.
	setupReps   int
	setupBudget time.Duration
	rungs       []rungPlan
	// serial adds one drain on one container running one task at a time.
	serial bool
	// traced turns the span recorder on and adds the single-layer
	// measurements and one traced drain.
	traced bool
}

func rungsFor(w *workload, which []int, warmup, length time.Duration) []rungPlan {
	out := make([]rungPlan, len(which))
	for i, k := range which {
		out[i] = rungPlan{name: rungNames[k], rate: w.rungs[k], warmup: warmup, length: length}
	}
	return out
}

// fullPlan is the suite run: five drains, five setups, all three rungs. The
// traced variant drops to one untraced drain (the overhead baseline) and the
// mid and high rung.
func fullPlan(w *workload, traced bool) plan {
	p := plan{
		drainRows:   w.drainRows,
		drainReps:   fullDrainReps,
		setupReps:   fullSetupReps,
		setupBudget: setupBudget,
		rungs:       rungsFor(w, []int{0, 1, 2}, fullRungWarmup, fullRungLength),
		serial:      w.name == "filter", // the stateless one: the baseline measures the loop, not a store
		traced:      traced,
	}
	if traced {
		p.drainReps, p.setupReps, p.setupBudget, p.serial = 1, 1, 0, false
		p.rungs = p.rungs[1:]
	}
	return p
}

// driverPlan fits one workload into a measuring budget of the given seconds:
// 70 % of it open loop, the drains scaled along. Untraced it runs three
// drains and the mid rung, which is all the gated metrics need; traced it
// runs one untraced and one traced drain and splits the open-loop time over
// the mid and high rung.
func driverPlan(w *workload, seconds float64, traced bool) plan {
	p := plan{drainReps: driverReps, setupReps: driverReps, setupBudget: setupBudget, traced: traced}
	paced := 0.7 * seconds
	which := []int{1}
	if traced {
		paced, which, p.drainReps, p.setupReps, p.setupBudget = paced/2, []int{1, 2}, 1, 1, 0
	}
	total := time.Duration(paced * float64(time.Second))
	warmup := min(time.Second, total/10)
	p.drainRows = int(float64(w.drainRows) * seconds / nominalSeconds)
	p.rungs = rungsFor(w, which, warmup, total-warmup)
	return p
}

// runWorkload generates the workload's input from seed and runs the plan.
func runWorkload(w *workload, seed int64, p plan, outDir string) (*report, error) {
	rep := &report{Workload: w.name, Metrics: map[string]metric{}}
	paced := 0
	for _, rp := range p.rungs {
		paced += rp.rows()
	}
	d, err := generate(w, seed, max(p.drainRows, paced))
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if p.traced {
		rec = newRecorder()
		if err := measureLayers(d, rec, rep); err != nil {
			return nil, fmt.Errorf("%s layers: %w", w.name, err)
		}
	}
	heap := newHeapPeak()
	fail := func(phase string, failed int, detail string) {
		rep.Failed += failed
		if failed > 0 {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: %d failed: %s", phase, failed, detail))
		}
	}

	// Phase 1: drain. Tracing stays off for the end-to-end figure. The first
	// drain of a process pays for the page faults of a heap the later ones
	// reuse, so one unmeasured drain goes first.
	drainOnce := func(phase string, rec *recorder, tune func(*cluster)) (drainResult, error) {
		res, err := drain(d, p.drainRows, heap, rec, tune)
		if err != nil {
			return res, fmt.Errorf("%s %s: %w", w.name, phase, err)
		}
		rep.Attempted += res.rows
		fail(phase, res.failed, res.detail)
		return res, nil
	}
	last, err := drainOnce("warm-up drain", nil, nil)
	if err != nil {
		return nil, err
	}
	rates := make([]float64, p.drainReps)
	for i := range rates {
		if last, err = drainOnce("drain", nil, nil); err != nil {
			return nil, err
		}
		rates[i] = last.rate()
	}
	rate := median(rates)
	rep.set("drain_rows_per_s", rate, "rows/s", len(rates))
	if p.traced {
		if last, err = drainOnce("traced drain", rec, nil); err != nil {
			return nil, err
		}
		rep.set("trace_overhead_pct", 100*(rate-last.rate())/rate, "%", 1)
	}
	drainLayers(rep, last, p.traced)
	if p.serial {
		serial, err := drainOnce("serial drain", nil, func(c *cluster) {
			c.engine.Containers, c.engine.TaskParallelism = 1, 1
		})
		if err != nil {
			return nil, err
		}
		rep.set("serial_drain_rows_per_s", serial.rate(), "rows/s", 1)
		rep.set("parallel_speedup", rate/serial.rate(), "x", 1)
	}

	// Phase 2: setup, several times; the last job stays up for phase 3.
	var r *running
	defer func() {
		if r != nil {
			r.job.Stop() // an error return left it running
		}
	}()
	var setups, submits []float64
	runtime.GC() // no collection of the drains' garbage in the middle of a millisecond-scale measurement
	for began := time.Now(); len(setups) < p.setupReps ||
		(time.Since(began) < p.setupBudget && len(setups) < maxSetupReps); {
		if r != nil {
			if err := r.stop(); err != nil {
				return nil, fmt.Errorf("%s setup: %w", w.name, err)
			}
		}
		var s setupResult
		if r, s, err = setup(d, rec); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups, submits = append(setups, s.seconds), append(submits, s.submitMs)
	}
	rep.set("setup_s", median(setups), "s", len(setups))
	rep.set("executor.submit_ms", median(submits), "ms", len(submits))

	// Phase 3: open loop, rung after rung on the same job.
	cons, err := r.outputConsumer()
	if err != nil {
		return nil, err
	}
	defer cons.Close()
	sustained, from := 0, 0
	var lateMs float64
	for _, rp := range p.rungs {
		res, err := rung(r, cons, d, from, rp, heap, rec)
		if err != nil {
			return nil, fmt.Errorf("%s rung %s: %w", w.name, rp.name, err)
		}
		from += res.sent
		rep.Attempted += res.sent
		fail("rung "+rp.name, res.failed, res.detail)
		n := len(res.latencies)
		for _, q := range []struct {
			name string
			q    float64
		}{{"latency_p50_ms", 0.5}, {"latency_p90_ms", 0.9}, {"latency_p99_ms", 0.99}} {
			if rp.name == "mid" {
				rep.set(q.name, res.quantileMs(q.q), "ms", n)
			}
			rep.set(q.name+"@"+rp.name, res.quantileMs(q.q), "ms", n)
		}
		rep.set("kafka.lag_max_rows@"+rp.name, float64(res.lagMax()), "rows", len(res.lag))
		rep.set("generator_late_p99_ms@"+rp.name, res.lateP99Ms, "ms", 1)
		lateMs = max(lateMs, res.lateP99Ms)
		if !res.valid {
			rep.Problems = append(rep.Problems, fmt.Sprintf("rung %s invalid: generator p99 lateness %.2f ms exceeds %.0f %% of the %.0f ms limit", rp.name, res.lateP99Ms, 100*lateShare, w.limitMs))
		}
		if res.sustained {
			sustained = max(sustained, rp.rate)
		}
		// The rung driven hardest shows how far the input can fall behind.
		rep.set("kafka.lag_max_rows", float64(res.lagMax()), "rows", len(res.lag))
	}
	err = r.stop()
	r = nil
	if err != nil {
		fail("paced", 1, err.Error())
	}
	rep.set("generator_late_p99_ms", lateMs, "ms", len(p.rungs))
	rep.set("sustained_rows_per_s", float64(sustained), "rows/s", len(p.rungs))
	rep.set("failed_share", float64(rep.Failed)/float64(rep.Attempted), "share", rep.Attempted)
	rep.set("peak_heap_mb", float64(heap.peak)/1e6, "MB", heap.n)

	if rec != nil {
		if err := rec.write(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// drainLayers derives the per-layer counts a drain leaves behind: operator
// row counts and busy shares, store operations, changelog and topic volumes.
func drainLayers(rep *report, res drainResult, traced bool) {
	rows := float64(res.rows)
	// Every task runs its own loop (TaskParallelism is 0), so the operator
	// timers of all partitions tick at once: the base is wall time x tasks.
	busyBase := res.wallSeconds * partitions * 1e9
	names := make([]string, 0, len(res.snapshot.Histograms))
	for name := range res.snapshot.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	var gets, puts int64
	for _, name := range names {
		h := res.snapshot.Histograms[name]
		switch {
		case strings.HasPrefix(name, "operator.") && strings.HasSuffix(name, ".process-ns"):
			op := strings.TrimSuffix(strings.TrimPrefix(name, "operator."), ".process-ns")
			// An operator's timer includes the operators it emits into.
			rep.set("operators."+op+".busy_share", float64(h.Sum)/busyBase, "share", int(h.Count))
			rep.set("operators."+op+".rows_out", float64(res.snapshot.Counters["operator."+op+".out"]), "rows", 1)
		case strings.HasPrefix(name, "store.") && strings.HasSuffix(name, ".get-ns"):
			gets += h.Count
		case strings.HasPrefix(name, "store.") && (strings.HasSuffix(name, ".put-ns") || strings.HasSuffix(name, ".delete-ns")):
			puts += h.Count
		}
	}
	var changelog int64
	for topic, n := range res.topics {
		if strings.HasSuffix(topic, changelogSuffix) {
			changelog += n
		}
	}
	rep.set("kv.gets_per_row", float64(gets)/rows, "1/row", res.rows)
	rep.set("kv.puts_per_row", float64(puts)/rows, "1/row", res.rows)
	rep.set("kv.changelog_records_per_row", float64(changelog)/rows, "1/row", res.rows)
	rep.set("kafka.partition_skew", res.skew, "max/mean", partitions)
	if traced {
		rep.set("kv.state_keys", float64(res.stateKeys), "keys", 1)
		rep.set("kafka.bytes_moved_per_row", float64(res.bytesMoved)/rows, "B/row", res.rows)
	}
}

// resultLine is the one JSON object the single-workload form prints last.
func resultLine(rep *report, want []metricSpec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, map[string]value{}}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		if !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return "", fmt.Errorf("metric %s was not measured on %s", m.Name, rep.Workload)
		}
		out.Metrics[m.Name] = value{got.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	return string(line), err
}

// suite runs every workload at full length and writes the results file.
func suite(s *spec, seed int64, traced bool, outDir string) ([]*report, error) {
	var reports []*report
	for _, w := range workloads {
		rep, err := runWorkload(w, seed, fullPlan(w, traced), outDir)
		if err != nil {
			return nil, err
		}
		rep.print(s)
		reports = append(reports, rep)
	}
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return reports, os.WriteFile(filepath.Join(outDir, "results.json"), data, 0o644)
}

func problems(reports []*report) int {
	n := 0
	for _, r := range reports {
		n += len(r.Problems)
	}
	return n
}

// selfcheck compares two suite runs of the same code on every gated metric.
// A pair further apart than the metric's own bound cannot tell a regression
// from noise: it is reported as unresolved.
func selfcheck(s *spec, first, second []*report) (unresolved int) {
	fmt.Printf("%-12s %-22s %16s %16s %8s %7s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for i, a := range first {
		b := second[i]
		row := func(name string, bound float64) {
			x, y := a.Metrics[name].Value, b.Metrics[name].Value
			diff := 0.0
			if x != y {
				diff = math.Abs(x-y) / math.Min(math.Abs(x), math.Abs(y))
			}
			verdict := "agree"
			if diff > bound {
				verdict = "unresolved"
				unresolved++
			}
			fmt.Printf("%-12s %-22s %16.4f %16.4f %7.1f%% %6.0f%% %s\n", a.Workload, name, x, y, 100*diff, 100*bound, verdict)
		}
		for _, m := range s.EndToEnd {
			row(m.Name, m.Bound)
		}
		// Step metrics: a rung dropped or a row failed is never noise.
		row("sustained_rows_per_s", 0)
		row("failed_share", 0)
	}
	return unresolved
}

func run() error {
	workloadName := flag.String("workload", "", "run only this workload, scaled to -seconds, and print one JSON result line last")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 0, "measuring budget of a single-workload run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	check := flag.Bool("selfcheck", false, "run the full suite twice and compare every gated metric against its bound")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	s, err := loadSpec()
	if err != nil {
		return err
	}
	outDir := filepath.Join(s.dir, "benchmark", "out")
	traced := *trace != 0

	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		if *seconds <= 0 {
			*seconds = float64(s.RunSeconds)
		}
		rep, err := runWorkload(w, *seed, driverPlan(w, *seconds, traced), outDir)
		if err != nil {
			return err
		}
		rep.print(s)
		want := s.EndToEnd
		if traced {
			want = s.PerLayer
		}
		line, err := resultLine(rep, want)
		if err != nil {
			return err
		}
		fmt.Println(line)
		return nil
	}

	first, err := suite(s, *seed, traced, outDir)
	if err != nil {
		return err
	}
	bad := problems(first)
	if *check {
		second, err := suite(s, *seed, traced, outDir)
		if err != nil {
			return err
		}
		bad += problems(second) + selfcheck(s, first, second)
	}
	if bad > 0 {
		return fmt.Errorf("%d problems: failed rows, invalid rungs or unresolved metrics (see above)", bad)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
