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
	"samzasql/internal/samza"
)

func main() {
	var (
		figure     = flag.String("figure", "all", "figure to regenerate: 5a, 5b, 5c, 6, figures (all four), trace, monitor-smoke, loc or all")
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
		monitorOn  = flag.Bool("monitor", false, "attach the cluster monitor to every run (tails __metrics/__traces, evaluates SLO rules onto __alerts) and print each SamzaSQL run's lag-recovery series")
		batchSize  = flag.Int("batch-size", 0, fmt.Sprintf("block size of SamzaSQL jobs: messages one poll delivers as a columnar block (0 = framework default %d, 1 = tuple at a time)", samza.DefaultBatchSize))
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
	case "loc":
		printLOC()
	default:
		spec, ok := bench.FigureByID(*figure)
		if !ok {
			fatalf("unknown figure %q (want 5a, 5b, 5c, 6, figures, trace, monitor-smoke, loc or all)", *figure)
		}
		runOne(spec)
	}
	if *jsonPath != "" {
		// Merge-on-write: whatever this run did not measure — other
		// figures — keeps the baseline file's section instead of being
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
