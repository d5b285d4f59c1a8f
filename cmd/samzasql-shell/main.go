// Command samzasql-shell is the interactive SamzaSQL shell (§4.1): it
// parses statements, plans them, and either evaluates them over stream
// history (table mode) or submits them as Samza jobs to the embedded
// cluster and tails the result stream. The SqlLine/JDBC stack of the paper
// collapses to this REPL over the same two-step planning pipeline.
//
//	samzasql-shell -demo
//	samzasql> SELECT STREAM * FROM Orders WHERE units > 90;
//	samzasql> EXPLAIN SELECT STREAM productId, units FROM Orders;
//	samzasql> !tables
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"samzasql/internal/executor"
	"samzasql/internal/kafka"
	"samzasql/internal/monitor"
	"samzasql/internal/samza"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/workload"
	"samzasql/internal/yarn"
	"samzasql/internal/zk"
)

func main() {
	var (
		modelPath  = flag.String("model", "", "JSON model file describing streams and tables")
		demo       = flag.Bool("demo", false, "preload the paper's demo schema and synthetic data")
		demoOrders = flag.Int("demo-orders", 10_000, "demo Orders records")
		streamRows = flag.Int("stream-rows", 20, "rows to tail from a streaming query before stopping it")
		partitions = flag.Int("partitions", 4, "partitions for demo topics")
		batchSize  = flag.Int("batch-size", 0, fmt.Sprintf("block size of submitted jobs: messages one poll delivers as a columnar block (0 = framework default %d, 1 = tuple at a time)", samza.DefaultBatchSize))
		monitorOn  = flag.Bool("monitor", false, "attach the cluster monitor: tail __metrics into the time-series store, evaluate SLO rules onto __alerts, and enable \\top and \\alerts")
		mInterval  = flag.Duration("metrics-interval", 0, "per-container metrics snapshot period for submitted jobs (default 100ms when -monitor is on, else off)")
	)
	flag.Parse()

	broker := kafka.NewBroker()
	cluster := yarn.NewCluster()
	cluster.AddNode("node-0", yarn.Resource{VCores: 64, MemoryMB: 1 << 20})
	cluster.AddNode("node-1", yarn.Resource{VCores: 64, MemoryMB: 1 << 20})
	cat := catalog.New()
	engine := executor.NewEngine(cat, broker, samza.NewJobRunner(broker, cluster), zk.NewStore())
	engine.Containers = 2
	if *batchSize < 0 {
		fatalf("bad -batch-size value %d (want >= 0)", *batchSize)
	}
	engine.BatchSize = *batchSize
	if *mInterval < 0 {
		fatalf("bad -metrics-interval value %v", *mInterval)
	}
	engine.MetricsInterval = *mInterval
	var mon *monitor.Monitor
	if *monitorOn {
		if engine.MetricsInterval == 0 {
			// The monitor only sees what jobs publish on __metrics.
			engine.MetricsInterval = 100 * time.Millisecond
		}
		runner := engine.Runner
		var err error
		mon, err = monitor.Start(monitor.Config{
			Broker: broker,
			Health: func() map[string]map[string]string {
				out := map[string]map[string]string{}
				for _, j := range runner.Jobs() {
					out[j.Spec.Name] = j.TaskHealth()
				}
				return out
			},
		})
		if err != nil {
			fatalf("starting monitor: %v", err)
		}
		defer mon.Stop()
		fmt.Println("cluster monitor attached (\\top for the live overview, \\alerts for SLO state)")
	}

	if *modelPath != "" {
		doc, err := os.ReadFile(*modelPath)
		if err != nil {
			fatalf("reading model: %v", err)
		}
		if err := cat.LoadModel(doc); err != nil {
			fatalf("loading model: %v", err)
		}
	}
	if *demo {
		if err := workload.DefineCatalog(cat); err != nil {
			fatalf("demo catalog: %v", err)
		}
		p := int32(*partitions)
		if _, err := workload.ProduceOrders(broker, "orders", p, *demoOrders, workload.DefaultOrdersConfig()); err != nil {
			fatalf("demo orders: %v", err)
		}
		if err := workload.ProduceProducts(broker, "products", p, 100); err != nil {
			fatalf("demo products: %v", err)
		}
		if err := workload.ProducePackets(broker, "packets-r1", "packets-r2", p, 1000, workload.DefaultPacketsConfig()); err != nil {
			fatalf("demo packets: %v", err)
		}
		fmt.Printf("demo data loaded: %d orders, 100 products, 1000 packet pairs (%d partitions)\n",
			*demoOrders, p)
	}

	fmt.Println("SamzaSQL shell — statements end with ';', '!help' for commands")
	repl(engine, mon, *streamRows)
}

func repl(engine *executor.Engine, mon *monitor.Monitor, streamRows int) {
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "samzasql> "
	for {
		fmt.Print(prompt)
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && (strings.HasPrefix(trimmed, "!") || strings.HasPrefix(trimmed, `\`)) {
			if !command(engine, mon, trimmed) {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if !strings.Contains(line, ";") {
			prompt = "      ...> "
			continue
		}
		stmt := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(buf.String()), ";"))
		buf.Reset()
		prompt = "samzasql> "
		if stmt == "" {
			continue
		}
		execute(engine, stmt, streamRows)
	}
}

func command(engine *executor.Engine, mon *monitor.Monitor, cmd string) bool {
	switch strings.Fields(cmd)[0] {
	case "!quit", "!exit":
		return false
	case "!tables":
		for _, name := range engine.Catalog.Names() {
			obj, err := engine.Catalog.Resolve(name)
			if err != nil {
				continue
			}
			fmt.Printf("  %-24s %-7s %s\n", name, obj.Kind, describe(obj))
		}
	case `\metrics`, "!metrics":
		printMetrics(engine)
	case `\top`, "!top":
		if mon == nil {
			fmt.Println("\\top needs the cluster monitor (restart with -monitor)")
			break
		}
		mon.WriteTop(os.Stdout, time.Now())
	case `\alerts`, "!alerts":
		if mon == nil {
			fmt.Println("\\alerts needs the cluster monitor (restart with -monitor)")
			break
		}
		printAlerts(mon)
	case "!help":
		fmt.Println(`  <statement>;              run a SQL statement (SELECT [STREAM], CREATE VIEW, INSERT INTO)
  EXPLAIN <query>;          print the optimized plan
  EXPLAIN ANALYZE <query>;  run the query briefly and print the plan with live per-operator stats
  !tables                   list catalog objects
  \metrics                  dump metrics of every submitted job (counters, gauges, latency histograms)
  \top                      live job overview: throughput, task latency, lag sparklines, slowest operators (needs -monitor)
  \alerts                   firing SLO alerts and the recent transition log (needs -monitor)
  !quit                     leave the shell`)
	default:
		fmt.Printf("unknown command %s (try !help)\n", cmd)
	}
	return true
}

// printMetrics dumps every submitted job's merged registry in the text
// format of the /metrics endpoint, with consumer-lag gauges refreshed.
func printMetrics(engine *executor.Engine) {
	jobs := engine.Runner.Jobs()
	if len(jobs) == 0 {
		fmt.Println("no jobs submitted yet")
		return
	}
	for _, j := range jobs {
		j.UpdateLags()
		fmt.Printf("# job %s\n", j.Spec.Name)
		j.MetricsSnapshot().WriteText(os.Stdout)
	}
}

// printAlerts renders the firing alerts and the recent transition log.
func printAlerts(mon *monitor.Monitor) {
	active := mon.ActiveAlerts()
	if len(active) == 0 {
		fmt.Println("no alerts firing")
	}
	for _, a := range active {
		fmt.Printf("FIRING %-28s job=%-24s subject=%-24s value=%d since=%s\n",
			a.Rule, a.Job, a.Subject, a.Value, time.UnixMilli(a.SinceMillis).Format(time.TimeOnly))
	}
	recent := mon.RecentAlerts(16)
	if len(recent) == 0 {
		return
	}
	fmt.Println("recent transitions (newest last):")
	for _, r := range recent {
		fmt.Printf("  %s %-8s %-28s job=%-24s subject=%-24s %s\n",
			time.UnixMilli(r.TimeMillis).Format(time.TimeOnly), r.State, r.Rule, r.Job, r.Subject, r.Reason)
	}
}

func describe(obj *catalog.Object) string {
	if obj.Row == nil {
		return ""
	}
	return obj.Row.String()
}

func execute(engine *executor.Engine, stmt string, streamRows int) {
	upper := strings.ToUpper(stmt)
	switch {
	case strings.HasPrefix(upper, "EXPLAIN ANALYZE"):
		rest := strings.TrimSpace(stmt[len("EXPLAIN ANALYZE"):])
		out, err := engine.ExplainAnalyze(context.Background(), rest, 2*time.Second)
		if err != nil {
			fmt.Println("ERROR:", err)
			return
		}
		fmt.Print(out)
	case strings.HasPrefix(upper, "EXPLAIN"):
		rest := strings.TrimSpace(stmt[len("EXPLAIN"):])
		out, err := engine.Explain(rest)
		if err != nil {
			fmt.Println("ERROR:", err)
			return
		}
		fmt.Print(out)
	case strings.HasPrefix(upper, "CREATE VIEW"):
		p, err := engine.CreateView(stmt)
		if err != nil {
			fmt.Println("ERROR:", err)
			return
		}
		printWarnings(p.Warnings)
		fmt.Printf("view %s created\n", p.Bound.View.Name)
	default:
		p, err := engine.Prepare(stmt)
		if err != nil {
			fmt.Println("ERROR:", err)
			return
		}
		printWarnings(p.Warnings)
		if p.Program.Streaming {
			runStreaming(engine, p, streamRows)
			return
		}
		rows, err := engine.RunBounded(p)
		if err != nil {
			fmt.Println("ERROR:", err)
			return
		}
		printTable(headerOf(p), rows)
		fmt.Printf("(%d rows)\n", len(rows))
	}
}

func headerOf(p *executor.Prepared) []string {
	cols := p.Program.OutputRow.Columns
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Name
	}
	return out
}

// runStreaming submits the job and tails its output topic.
func runStreaming(engine *executor.Engine, p *executor.Prepared, maxRows int) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := engine.Submit(ctx, p)
	if err != nil {
		fmt.Println("ERROR:", err)
		return
	}
	defer rj.Stop()
	fmt.Printf("job %s submitted; tailing %s (up to %d rows, 3s idle timeout)\n",
		p.JobName, p.OutputTopic, maxRows)

	n, err := engine.Broker.Partitions(p.OutputTopic)
	if err != nil {
		fmt.Println("ERROR:", err)
		return
	}
	consumer := kafka.NewConsumer(engine.Broker, "")
	for part := int32(0); part < n; part++ {
		if err := consumer.Assign(kafka.TopicPartition{Topic: p.OutputTopic, Partition: part}); err != nil {
			fmt.Println("ERROR:", err)
			return
		}
	}
	var rows [][]any
	for len(rows) < maxRows {
		pollCtx, pollCancel := context.WithTimeout(ctx, 3*time.Second)
		msgs, err := consumer.Poll(pollCtx, maxRows-len(rows))
		pollCancel()
		if err != nil || len(msgs) == 0 {
			break // idle: assume the job is caught up
		}
		for _, m := range msgs {
			row, err := p.Program.OutputCodec.DecodeRow(m.Value, nil)
			if err != nil {
				fmt.Println("ERROR:", err)
				return
			}
			rows = append(rows, row)
		}
	}
	printTable(headerOf(p), rows)
	fmt.Printf("(%d rows; job stopped)\n", len(rows))
}

func printWarnings(ws []string) {
	for _, w := range ws {
		fmt.Println("WARNING:", w)
	}
}

// printTable renders rows with right-padded columns.
func printTable(header []string, rows [][]any) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	cells := make([][]string, len(rows))
	for r, row := range rows {
		cells[r] = make([]string, len(header))
		for c := range header {
			v := "NULL"
			if c < len(row) && row[c] != nil {
				v = fmt.Sprintf("%v", row[c])
			}
			cells[r][c] = v
			if len(v) > widths[c] {
				widths[c] = len(v)
			}
		}
	}
	var sep strings.Builder
	for _, w := range widths {
		sep.WriteString("+")
		sep.WriteString(strings.Repeat("-", w+2))
	}
	sep.WriteString("+")
	fmt.Println(sep.String())
	printRow := func(vals []string) {
		for i, v := range vals {
			fmt.Printf("| %-*s ", widths[i], v)
		}
		fmt.Println("|")
	}
	printRow(header)
	fmt.Println(sep.String())
	for _, r := range cells {
		printRow(r)
	}
	fmt.Println(sep.String())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "samzasql-shell: "+format+"\n", args...)
	os.Exit(1)
}
