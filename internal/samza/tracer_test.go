package samza

import (
	"context"
	"testing"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
	"samzasql/internal/trace"
)

// storePutTask writes every message into a changelog-backed store. It
// replays each sampled message's trace around that message's put, as a
// SamzaSQL task replays its block's spans, so the put lands under the
// message's process span.
type storePutTask struct {
	ctx *TaskContext
}

func (t *storePutTask) Init(ctx *TaskContext) error { t.ctx = ctx; return nil }

func (t *storePutTask) ProcessBatch(envs []IncomingMessageEnvelope, c MessageCollector, _ Coordinator, pollNs int64) error {
	act := t.ctx.Trace
	for _, env := range envs {
		if env.Trace.Sampled {
			act.StartMessage(env.Trace, pollNs, time.Now().UnixNano())
		}
		t.ctx.Store("s").Put(env.Key, env.Value)
		if env.Trace.Sampled {
			act.FinishMessage(time.Now().UnixNano())
		}
	}
	return nil
}

// pollTraces tails the trace stream until done says the collected batches
// suffice, or the deadline passes.
func pollTraces(t *testing.T, b *kafka.Broker, done func([]*TraceBatchMessage) bool) []*TraceBatchMessage {
	t.Helper()
	tailer, err := NewTailer[TraceBatchMessage](b, DefaultTraceTopic)
	if err != nil {
		t.Fatal(err)
	}
	defer tailer.Close()
	var batches []*TraceBatchMessage
	deadline := time.Now().Add(5 * time.Second)
	for !done(batches) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out tailing traces; got %d batches", len(batches))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		got, err := tailer.Poll(ctx, 128)
		cancel()
		if err != nil && ctx.Err() == nil {
			t.Fatal(err)
		}
		batches = append(batches, got...)
	}
	return batches
}

// TestEndToEndTraceSpanTree runs a store-writing job with every message
// sampled and asserts a published trace covers the full causal chain:
// produce → poll → process → store put, then the commit — plus the
// lifecycle event log around it.
func TestEndToEndTraceSpanTree(t *testing.T) {
	b, r := testEnv()
	b.SetTraceSampling(1.0)
	if err := b.CreateTopic("in", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	produceN(t, b, "in", 0, 10, "k")

	job := &JobSpec{
		Name:            "traced",
		Inputs:          []StreamSpec{{Topic: "in"}},
		Stores:          []StoreSpec{{Name: "s", Changelog: true}},
		TaskFactory:     func() StreamTask { return &storePutTask{} },
		CommitEvery:     5,
		TraceSampleRate: 1.0,
		TraceInterval:   5 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := r.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return rj.MetricsSnapshot().Counters["messages-processed"] >= 10
	}, "all messages processed")
	rj.Stop()

	// Collect until some trace holds the full chain including the commit
	// side, which only records after a checkpoint.
	wantStages := []string{"produce", "poll", "process", "store.s.put", "commit"}
	complete := func(batches []*TraceBatchMessage) map[uint64]map[string]trace.Span {
		byTrace := map[uint64]map[string]trace.Span{}
		for _, batch := range batches {
			for _, s := range batch.Spans {
				m := byTrace[s.TraceID]
				if m == nil {
					m = map[string]trace.Span{}
					byTrace[s.TraceID] = m
				}
				m[s.Stage] = s
			}
		}
		return byTrace
	}
	hasFull := func(batches []*TraceBatchMessage) bool {
		for _, m := range complete(batches) {
			ok := true
			for _, st := range wantStages {
				if _, have := m[st]; !have {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}
	batches := pollTraces(t, b, hasFull)

	for _, m := range complete(batches) {
		full := true
		for _, st := range wantStages {
			if _, have := m[st]; !have {
				full = false
				break
			}
		}
		if !full {
			continue
		}
		// The causal chain: poll under produce, process under poll, the
		// store put under process; the commit under a process span.
		if m["produce"].ParentID != 0 {
			t.Fatalf("produce span has parent %d, want root", m["produce"].ParentID)
		}
		if m["poll"].ParentID != m["produce"].SpanID {
			t.Fatalf("poll parent %d, want produce span %d", m["poll"].ParentID, m["produce"].SpanID)
		}
		if m["process"].ParentID != m["poll"].SpanID {
			t.Fatalf("process parent %d, want poll span %d", m["process"].ParentID, m["poll"].SpanID)
		}
		if m["store.s.put"].ParentID != m["process"].SpanID {
			t.Fatalf("store put parent %d, want process span %d", m["store.s.put"].ParentID, m["process"].SpanID)
		}
		if m["commit"].ParentID != m["process"].SpanID {
			t.Fatalf("commit parent %d, want process span %d", m["commit"].ParentID, m["process"].SpanID)
		}
		break
	}

	// Lifecycle events: container-level and runner-level batches share the
	// stream; the runner publishes job-start/job-stop as Container -1.
	events := map[string]bool{}
	runnerEvents := map[string]bool{}
	for _, batch := range batches {
		for _, e := range batch.Events {
			events[e.Kind] = true
			if batch.Container == -1 {
				runnerEvents[e.Kind] = true
			}
		}
	}
	for _, kind := range []string{"container-start", "task-assigned", "checkpoint-commit", "container-stop"} {
		if !events[kind] {
			t.Errorf("missing lifecycle event %q; have %v", kind, events)
		}
	}
	for _, kind := range []string{"job-start", "job-stop", "container-allocate"} {
		if !runnerEvents[kind] {
			t.Errorf("missing runner-level event %q; have %v", kind, runnerEvents)
		}
	}

	// The job handle's recent-trace view feeds /debug/traces and \trace.
	if traces := rj.RecentTraces(); len(traces) == 0 {
		t.Error("RecentTraces is empty after a fully sampled run")
	}
}

// TestTailerLagGauges covers the observability-of-observability satellite:
// both tailers surface their own consumer lag as gauges.
func TestTailerLagGauges(t *testing.T) {
	b, r := testEnv()
	b.SetTraceSampling(1.0)
	if err := b.CreateTopic("in", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	produceN(t, b, "in", 0, 20, "k")
	job := &JobSpec{
		Name:            "lagged",
		Inputs:          []StreamSpec{{Topic: "in"}},
		TaskFactory:     func() StreamTask { return &passthroughTask{out: "in2"} },
		CommitEvery:     10,
		MetricsInterval: 5 * time.Millisecond,
		TraceSampleRate: 1.0,
		TraceInterval:   5 * time.Millisecond,
	}
	if err := b.EnsureTopic("in2", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := r.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return rj.MetricsSnapshot().Counters["messages-processed"] >= 20
	}, "all messages processed")
	time.Sleep(15 * time.Millisecond) // let at least one reporter tick land
	rj.Stop()

	reg := metrics.NewRegistry()
	mt, err := NewTailer[MetricsSnapshotMessage](b, DefaultMetricsTopic)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	mt.BindLag(reg)
	lag, err := mt.UpdateLag()
	if err != nil {
		t.Fatal(err)
	}
	if lag <= 0 {
		t.Fatalf("metrics tailer lag %d before any poll, want > 0", lag)
	}
	if got := reg.Gauge("tailer.lag." + DefaultMetricsTopic + ".0").Value(); got != lag {
		t.Fatalf("metrics lag gauge %d, want %d", got, lag)
	}

	tt, err := NewTailer[TraceBatchMessage](b, DefaultTraceTopic)
	if err != nil {
		t.Fatal(err)
	}
	defer tt.Close()
	tt.BindLag(reg)
	tlag, err := tt.UpdateLag()
	if err != nil {
		t.Fatal(err)
	}
	if tlag <= 0 {
		t.Fatalf("trace tailer lag %d before any poll, want > 0", tlag)
	}
	if got := reg.Gauge("tailer.lag." + DefaultTraceTopic + ".0").Value(); got != tlag {
		t.Fatalf("trace lag gauge %d, want %d", got, tlag)
	}
}

// TestReportersConcurrentShutdown stops jobs while both reporters are mid
// tick, repeatedly, to shake out send-on-closed-channel and dropped-final-
// flush bugs (run with -race). The final metrics flush must reflect the full
// run even when Stop lands between ticks.
func TestReportersConcurrentShutdown(t *testing.T) {
	for i := 0; i < 5; i++ {
		b, r := testEnv()
		b.SetTraceSampling(1.0)
		if err := b.CreateTopic("in", kafka.TopicConfig{Partitions: 2}); err != nil {
			t.Fatal(err)
		}
		produceN(t, b, "in", 0, 30, "a")
		produceN(t, b, "in", 1, 30, "b")
		job := &JobSpec{
			Name:            "churny",
			Inputs:          []StreamSpec{{Topic: "in"}},
			Stores:          []StoreSpec{{Name: "s", Changelog: true}},
			TaskFactory:     func() StreamTask { return &storePutTask{} },
			CommitEvery:     7,
			MetricsInterval: time.Millisecond,
			TraceSampleRate: 1.0,
			TraceInterval:   time.Millisecond,
		}
		ctx, cancel := context.WithCancel(context.Background())
		rj, err := r.Submit(ctx, job)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		// Vary the stop point relative to reporter ticks across rounds.
		time.Sleep(time.Duration(i) * 3 * time.Millisecond)
		rj.Stop()
		processed := rj.MetricsSnapshot().Counters["messages-processed"]
		cancel()

		// The final flush runs after every task exits, so the last published
		// snapshot must carry the end-of-run counter.
		mt, err := NewTailer[MetricsSnapshotMessage](b, DefaultMetricsTopic)
		if err != nil {
			t.Fatal(err)
		}
		var final int64
		deadline := time.Now().Add(2 * time.Second)
		for {
			pctx, pcancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			snaps, err := mt.Poll(pctx, 256)
			pcancel()
			if err != nil && pctx.Err() == nil {
				t.Fatal(err)
			}
			for _, s := range snaps {
				if got := s.Metrics.Counters["messages-processed"]; got > final {
					final = got
				}
			}
			if final >= processed || time.Now().After(deadline) {
				break
			}
		}
		mt.Close()
		if final < processed {
			t.Fatalf("round %d: final published snapshot has %d processed, job reported %d — final flush dropped",
				i, final, processed)
		}
	}
}
