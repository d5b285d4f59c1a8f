package samza

import (
	"context"
	"testing"
	"time"

	"samzasql/internal/kafka"
)

// TestMetricsSnapshotReporterPublishes runs a job with the reporter enabled
// and tails the metrics stream back, asserting the published snapshots carry
// per-task latency percentiles and per-partition consumer-lag gauges.
func TestMetricsSnapshotReporterPublishes(t *testing.T) {
	b, runner := testEnv()
	if err := b.EnsureTopic("in", kafka.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.EnsureTopic("out", kafka.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	produceN(t, b, "in", 0, 30, "a")
	produceN(t, b, "in", 1, 20, "b")

	job := &JobSpec{
		Name:            "reported",
		Inputs:          []StreamSpec{{Topic: "in"}},
		TaskFactory:     func() StreamTask { return &passthroughTask{out: "out"} },
		CommitEvery:     10,
		MetricsInterval: 5 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := runner.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return rj.MetricsSnapshot().Counters["messages-processed"] >= 50
	}, "all messages processed")
	// Let at least one interval tick fire before the final flush.
	time.Sleep(15 * time.Millisecond)
	rj.Stop()

	tailer, err := NewTailer[MetricsSnapshotMessage](b, DefaultMetricsTopic)
	if err != nil {
		t.Fatal(err)
	}
	defer tailer.Close()
	tctx, tcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer tcancel()
	var snaps []*MetricsSnapshotMessage
	for len(snaps) < 2 {
		batch, err := tailer.Poll(tctx, 128)
		if err != nil {
			t.Fatalf("tailer poll after %d snapshots: %v", len(snaps), err)
		}
		snaps = append(snaps, batch...)
	}
	if len(snaps) < 2 {
		t.Fatalf("want >= 2 published snapshots, got %d", len(snaps))
	}
	for i, s := range snaps {
		if s.Job != "reported" {
			t.Fatalf("snapshot %d from unexpected job %q", i, s.Job)
		}
		if s.Seq < 1 {
			t.Fatalf("snapshot %d has seq %d", i, s.Seq)
		}
	}
	// The last snapshot is the final flush: complete end-of-run metrics.
	last := snaps[len(snaps)-1]
	if got := last.Metrics.Counters["messages-processed"]; got != 50 {
		t.Fatalf("final snapshot messages-processed = %d, want 50", got)
	}
	for _, task := range []string{"Partition-0", "Partition-1"} {
		h, ok := last.Metrics.Histograms["task."+task+".process-ns"]
		if !ok {
			t.Fatalf("final snapshot missing task %s process-latency histogram; have %v",
				task, last.Metrics.Histograms)
		}
		if h.Count == 0 || h.P50 <= 0 || h.P99 < h.P50 {
			t.Fatalf("task %s latency histogram implausible: %+v", task, h)
		}
	}
	for _, g := range []string{"kafka.lag.in.0", "kafka.lag.in.1"} {
		lag, ok := last.Metrics.Gauges[g]
		if !ok {
			t.Fatalf("final snapshot missing lag gauge %s; have %v", g, last.Metrics.Gauges)
		}
		if lag != 0 {
			t.Fatalf("caught-up job reports lag %d on %s", lag, g)
		}
	}
}

// TestMetricsReporterFinalSnapshotShortLivedJob is the regression test for
// the stop-flush: a job that stops long before its first interval tick must
// still leave an initial and a Final=true closing snapshot on __metrics,
// with the closing one carrying the complete end-of-run counters.
func TestMetricsReporterFinalSnapshotShortLivedJob(t *testing.T) {
	b, runner := testEnv()
	if err := b.EnsureTopic("in", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.EnsureTopic("out", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	produceN(t, b, "in", 0, 10, "x")

	job := &JobSpec{
		Name:        "short-lived",
		Inputs:      []StreamSpec{{Topic: "in"}},
		TaskFactory: func() StreamTask { return &passthroughTask{out: "out"} },
		// An interval the job will never reach: every snapshot on the
		// stream is either the startup publish or the stop flush.
		MetricsInterval: time.Hour,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := runner.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return rj.MetricsSnapshot().Counters["messages-processed"] >= 10
	}, "all messages processed")
	rj.Stop()

	tailer, err := NewTailer[MetricsSnapshotMessage](b, DefaultMetricsTopic)
	if err != nil {
		t.Fatal(err)
	}
	defer tailer.Close()
	tctx, tcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer tcancel()
	snaps, err := tailer.Poll(tctx, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("short-lived job published %d snapshots, want >= 2 (initial + final)", len(snaps))
	}
	for i, s := range snaps[:len(snaps)-1] {
		if s.Final {
			t.Fatalf("snapshot %d of %d marked Final", i, len(snaps))
		}
	}
	last := snaps[len(snaps)-1]
	if !last.Final {
		t.Fatalf("closing snapshot not marked Final: %+v", last)
	}
	if got := last.Metrics.Counters["messages-processed"]; got != 10 {
		t.Fatalf("final snapshot messages-processed = %d, want 10", got)
	}
}
