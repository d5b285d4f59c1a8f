// Command samzasql-bench regenerates the paper's evaluation (§5): for every
// figure it runs the native and SamzaSQL implementations across the
// container sweep and prints the measured series, plus the usability
// (lines-of-code) comparison. Example:
//
//	samzasql-bench -figure all -messages 200000
//	samzasql-bench -figure 5c -containers 1,2,4,8
//	samzasql-bench -figure loc
//	samzasql-bench -figure all -json BENCH_results.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"samzasql/internal/bench"
)

func main() {
	var (
		figure     = flag.String("figure", "all", "figure to regenerate: 5a, 5b, 5c, 6, figures (all four), trace, monitor-smoke, profile-overhead, profile-smoke, hot, loc or all")
		messages   = flag.Int("messages", 200_000, "orders messages per run")
		partitions = flag.Int("partitions", 32, "partitions per topic (paper: 32)")
		products   = flag.Int("products", 100, "products relation cardinality")
		containers = flag.String("containers", "", "comma-separated container counts (default: per-figure sweep)")
		taskPar    = flag.Int("task-parallelism", 0, "max tasks processing concurrently per container (0 = all tasks parallel, 1 = sequential container loop); sweep at fixed -containers to measure tasks-per-core scaling")
		check      = flag.Bool("check", false, "verify the measured shape matches the paper and exit non-zero otherwise")
		mAddr      = flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof/ on this address during runs (e.g. 127.0.0.1:8642)")
		mInterval  = flag.Duration("metrics-interval", 0, "enable the per-container metrics snapshot reporter at this period (e.g. 500ms) and print per-operator latency tables")
		traceRate  = flag.Float64("trace-sample-rate", 0, "sample roughly this fraction of produced messages into end-to-end span trees (0 = tracing off)")
		traceRnds  = flag.Int("trace-rounds", 5, "rounds per point for -figure trace (best-of comparison)")
		profIntv   = flag.Duration("profile-interval", 0, "run each job's continuous profiler at this capture period (e.g. 1s; 0 = profiling off)")
		profWindow = flag.Duration("profile-window", 0, "CPU sampling length within each profile interval (0 = profiler default; equal to the interval = always-on)")
		profRnds   = flag.Int("profile-rounds", 5, "rounds per point for -figure profile-overhead (best-of comparison)")
		artifacts  = flag.String("artifacts", "", "directory for raw /profile JSON artifacts from -figure profile-smoke (empty = don't save)")
		monitorOn  = flag.Bool("monitor", false, "attach the cluster monitor to every run (tails __metrics/__traces, evaluates SLO rules onto __alerts) and print each SamzaSQL run's lag-recovery series")
		batchSize  = flag.Int("batch-size", 0, "block size of SamzaSQL jobs: messages one poll delivers as a columnar block (0 = framework default 256, 1 = tuple at a time)")
		jsonPath   = flag.String("json", "", "also write the measured series as machine-readable JSON to this path (e.g. BENCH_results.json)")
		compare    = flag.String("compare", "", "diff measured sql_native_ratio per figure against this baseline JSON report (e.g. the committed BENCH_results.json); exits 3 on a >10% regression")
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.Messages = *messages
	cfg.Partitions = int32(*partitions)
	cfg.Products = *products
	if *taskPar < 0 {
		fatalf("bad -task-parallelism value %d", *taskPar)
	}
	cfg.TaskParallelism = *taskPar
	cfg.MetricsAddr = *mAddr
	cfg.MetricsInterval = *mInterval
	if *traceRate < 0 || *traceRate > 1 {
		fatalf("bad -trace-sample-rate value %v (want [0, 1])", *traceRate)
	}
	cfg.TraceSampleRate = *traceRate
	if *profIntv < 0 || *profWindow < 0 {
		fatalf("bad -profile-interval/-profile-window (want >= 0)")
	}
	cfg.ProfileInterval = *profIntv
	cfg.ProfileWindow = *profWindow
	cfg.Monitor = *monitorOn
	if *batchSize < 0 {
		fatalf("bad -batch-size value %d (want >= 0)", *batchSize)
	}
	cfg.BatchSize = *batchSize

	var sweep []int
	if *containers != "" {
		for _, part := range strings.Split(*containers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fatalf("bad -containers value %q", part)
			}
			sweep = append(sweep, n)
		}
	}

	report := &bench.Report{Messages: cfg.Messages, Partitions: cfg.Partitions}
	failed := false
	runOne := func(spec bench.FigureSpec) {
		if len(sweep) > 0 {
			spec.Containers = sweep
		}
		rows, err := bench.RunFigure(spec, cfg)
		if err != nil {
			fatalf("figure %s: %v", spec.ID, err)
		}
		fmt.Println(bench.FormatFigure(spec, rows))
		if *mInterval > 0 {
			if tbl := bench.FormatOperatorLatencies(spec, rows); tbl != "" {
				fmt.Println(tbl)
			}
		}
		report.Figures = append(report.Figures, bench.ReportFigure(spec, rows))
		if *check {
			for _, v := range bench.CheckShape(spec, rows) {
				fmt.Fprintf(os.Stderr, "SHAPE MISMATCH (figure %s): %s\n", spec.ID, v)
				failed = true
			}
		}
	}
	// runTraceOverhead measures tracing cost at sample rates 0, 0.01, 1.0
	// on the filter and sliding-window benchmarks, behind "-figure trace".
	runTraceOverhead := func() {
		rows, err := bench.RunTraceOverhead(cfg.Messages, *traceRnds)
		if err != nil {
			fatalf("trace overhead: %v", err)
		}
		fmt.Println(bench.FormatTraceOverhead(rows))
	}

	// runMonitorSmoke drives the monitored lag-spike scenario end to end
	// over the introspection HTTP surface, behind "-figure monitor-smoke"
	// and `make monitor-smoke`.
	runMonitorSmoke := func() {
		r, err := bench.RunMonitorSmoke(cfg.Messages)
		if err != nil {
			fatalf("monitor smoke: %v", err)
		}
		fmt.Println(bench.FormatMonitorSmoke(r))
	}

	// runProfileOverhead measures continuous-profiling cost off/default/
	// aggressive on the filter benchmark, behind "-figure profile-overhead".
	runProfileOverhead := func() {
		rows, err := bench.RunProfileOverhead(cfg.Messages, *profRnds)
		if err != nil {
			fatalf("profile overhead: %v", err)
		}
		fmt.Println(bench.FormatProfileOverhead(rows))
	}

	// runProfileSmoke drives a two-container profiled job and asserts the
	// cluster-merged /profile surface over HTTP, behind "-figure
	// profile-smoke" and `make profile-smoke`.
	runProfileSmoke := func() {
		r, err := bench.RunProfileSmoke(cfg.Messages, *artifacts)
		if err != nil {
			fatalf("profile smoke: %v", err)
		}
		fmt.Println(bench.FormatProfileSmoke(r))
	}

	// runHot collects the CPU hot-function baseline from a profiled filter
	// run, behind "-figure hot"; it lands in -json for bench-compare
	// attribution.
	runHot := func() {
		funcs, samples, err := bench.CollectHotFunctions(cfg.Messages)
		if err != nil {
			fatalf("hot functions: %v", err)
		}
		fmt.Println(bench.FormatHotFunctions(funcs, samples))
		report.HotFunctions, report.HotFunctionSamples = funcs, samples
	}

	switch *figure {
	case "all":
		for _, spec := range bench.Figures {
			runOne(spec)
		}
		printLOC()
	case "figures":
		for _, spec := range bench.Figures {
			runOne(spec)
		}
	case "trace":
		runTraceOverhead()
	case "monitor-smoke":
		runMonitorSmoke()
	case "profile-overhead":
		runProfileOverhead()
	case "profile-smoke":
		runProfileSmoke()
	case "hot":
		runHot()
	case "loc":
		printLOC()
	default:
		spec, ok := bench.FigureByID(*figure)
		if !ok {
			fatalf("unknown figure %q (want 5a, 5b, 5c, 6, figures, trace, monitor-smoke, profile-overhead, profile-smoke, hot, loc or all)", *figure)
		}
		runOne(spec)
	}
	if *jsonPath != "" {
		// Merge-on-write: whatever this run did not measure — other figures,
		// hot functions — keeps the baseline file's section instead of being
		// erased, so `-figure 6 -json` re-measures one figure in place.
		if prev, err := bench.ReadReport(*jsonPath); err == nil {
			report.MergeFrom(prev)
		}
		if err := report.WriteJSON(*jsonPath); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *compare != "" {
		baseline, err := bench.ReadReport(*compare)
		if err != nil {
			fatalf("compare baseline: %v", err)
		}
		table, regressed := bench.FormatComparison(bench.CompareReports(baseline, report, 0.10))
		fmt.Printf("ratio comparison vs %s (>10%% drops flagged):\n%s", *compare, table)
		if regressed {
			// Attribution: re-run the filter benchmark under the profiler and
			// diff hot-function CPU shares against the committed baseline, so
			// the regression report names the function whose share grew.
			if len(baseline.HotFunctions) > 0 {
				fresh, _, err := bench.CollectHotFunctions(cfg.Messages)
				if err != nil {
					fmt.Fprintf(os.Stderr, "samzasql-bench: regression attribution failed: %v\n", err)
				} else {
					fmt.Printf("regression attribution (profiled filter run vs baseline hot functions, top risers):\n%s",
						bench.FormatHotShifts(bench.CompareHotFunctions(baseline.HotFunctions, fresh), 8))
				}
			} else {
				fmt.Println("no hot-function baseline in the compare report; run `-figure hot -json` to record one for attribution")
			}
			os.Exit(3)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func printLOC() {
	rows, err := bench.LOCTable()
	if err != nil {
		fatalf("loc table: %v", err)
	}
	fmt.Println(bench.FormatLOC(rows))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "samzasql-bench: "+format+"\n", args...)
	os.Exit(1)
}
