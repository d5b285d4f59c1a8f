// Package monitor is the cluster-wide observability aggregator: it tails
// the __metrics control stream into a bounded in-memory store, answers
// windowed
// queries over it (raw ranges, rates, and p50/p95/p99 roll-ups
// merged exactly across containers from the log-bucketed histogram
// buckets), and evaluates SLO rules — sustained consumer lag, throughput
// drop versus the trailing window, task-liveness flaps — publishing firing/resolved alert transitions onto the __alerts stream.
//
// Because the monitor consumes ordinary streams, it inherits the
// platform's own properties (§2 of the paper): it can run anywhere a
// consumer can, it can replay history from retention, and its output
// (__alerts) is itself a stream any job can consume. It is the measurement
// substrate the adaptive-runtime work (ROADMAP item 5) reads its control
// inputs from.
//
// Concurrency layout: one poller goroutine blocks on the metrics stream's
// samza.Tailer and forwards decoded batches over a channel; ONE run-loop
// goroutine is the single writer to all monitor state (the series store,
// the health-flap log, the alert state machine). HTTP handlers and the shell read
// through RLock-guarded accessors. All goroutines are WaitGroup-joined,
// and alert publishes happen with no monitor lock held.
//
//samzasql:enforce goroutine-supervision
package monitor
