package samza

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"samzasql/internal/kafka"
)

// TestProfileReporterPublishes runs a job with continuous profiling enabled
// and tails __profiles back: batches must arrive with increasing Seq,
// non-empty heap/goroutine folds, and a Final flush closing the series.
func TestProfileReporterPublishes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CPU capture windows")
	}
	b, runner := testEnv()
	if err := b.EnsureTopic("in", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.EnsureTopic("out", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	produceN(t, b, "in", 0, 200, "p")

	job := &JobSpec{
		Name:            "profiled",
		Inputs:          []StreamSpec{{Topic: "in"}},
		TaskFactory:     func() StreamTask { return &passthroughTask{out: "out"} },
		ProfileInterval: 40 * time.Millisecond,
		ProfileWindow:   15 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := runner.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return rj.MetricsSnapshot().Counters["messages-processed"] >= 200
	}, "all messages processed")
	// Let at least two capture windows complete before stopping.
	time.Sleep(150 * time.Millisecond)
	rj.Stop()

	tailer, err := NewTailer[ProfileBatchMessage](b, DefaultProfilesTopic)
	if err != nil {
		t.Fatal(err)
	}
	defer tailer.Close()
	tctx, tcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer tcancel()
	var batches []*ProfileBatchMessage
	for len(batches) < 2 {
		got, err := tailer.Poll(tctx, 128)
		if err != nil {
			t.Fatalf("tailer poll after %d batches: %v", len(batches), err)
		}
		batches = append(batches, got...)
	}
	var prevSeq int64
	for i, m := range batches {
		if m.Job != "profiled" || m.Container != 0 {
			t.Fatalf("batch %d from unexpected publisher %s/%d", i, m.Job, m.Container)
		}
		if m.Seq != prevSeq+1 {
			t.Fatalf("batch %d seq = %d, want %d", i, m.Seq, prevSeq+1)
		}
		prevSeq = m.Seq
	}
	last := batches[len(batches)-1]
	if !last.Final {
		t.Fatalf("closing batch not marked Final: %+v", last)
	}
	// The final flush skips CPU but always snapshots goroutines; at least
	// one interval batch must carry a CPU window length.
	if len(last.Goroutines) == 0 {
		t.Fatal("final batch has no goroutine fold")
	}
	sawWindow := false
	for _, m := range batches[:len(batches)-1] {
		if m.WindowMillis > 0 {
			sawWindow = true
		}
	}
	if !sawWindow {
		t.Fatal("no interval batch carried a CPU window")
	}
}

// TestProfilesTailerResumeAcrossContainerRestart is the restart-resume
// coverage: a profiled job whose task crashes and restarts under the YARN
// sim must keep publishing batches from the second attempt, the tailer
// consuming through the restart — visible as the per-container Seq
// restarting from 1.
func TestProfilesTailerResumeAcrossContainerRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CPU capture windows")
	}
	b, runner := testEnv()
	if err := b.EnsureTopic("in", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	const total = 400
	produceN(t, b, "in", 0, total, "r")
	// The tailer attaches before the first container runs, like the monitor
	// does; ensure the topic exists up front.
	if err := b.EnsureTopic(DefaultProfilesTopic, kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}

	var crashed atomic.Bool
	job := &JobSpec{
		Name:        "crashy-profiled",
		Inputs:      []StreamSpec{{Topic: "in"}},
		CommitEvery: 10,
		MaxRestarts: 2,
		TaskFactory: func() StreamTask {
			// Slow processing keeps each attempt alive across several capture
			// intervals; the crash at message 150 forces a restart. crashed
			// is shared across factory calls so the restarted task runs clean.
			return &crashOnceTask{crashAt: 150, delay: 300 * time.Microsecond, crashed: &crashed}
		},
		ProfileInterval: 30 * time.Millisecond,
		ProfileWindow:   10 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := runner.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}

	tailer, err := NewTailer[ProfileBatchMessage](b, DefaultProfilesTopic)
	if err != nil {
		t.Fatal(err)
	}
	defer tailer.Close()

	// Tail live while the job crashes and restarts: the consumer must ride
	// through the restart, collecting batches from both attempts.
	var batches []*ProfileBatchMessage
	seqResets := 0
	var prevSeq int64
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		pctx, pcancel := context.WithTimeout(ctx, 200*time.Millisecond)
		got, _ := tailer.Poll(pctx, 64)
		pcancel()
		for _, m := range got {
			if m.Seq <= prevSeq {
				seqResets++
			}
			prevSeq = m.Seq
			batches = append(batches, m)
		}
		if rj.MetricsSnapshot().Counters["messages-processed"] >= total && seqResets > 0 {
			break
		}
	}
	rj.Stop()
	if seqResets == 0 {
		t.Fatalf("no Seq restart observed across %d batches; the restarted container never published", len(batches))
	}
	if len(batches) < 3 {
		t.Fatalf("tailer consumed only %d batches through the restart", len(batches))
	}
}

// crashOnceTask panics once at crashAt processed messages, then runs clean
// after its restart (crashed is shared across the factory's instances).
type crashOnceTask struct {
	n       int
	crashAt int
	delay   time.Duration
	crashed *atomic.Bool
}

func (c *crashOnceTask) Init(ctx *TaskContext) error { return nil }

func (c *crashOnceTask) Process(env IncomingMessageEnvelope, col MessageCollector, coord Coordinator) error {
	c.n++
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	if c.n == c.crashAt && c.crashed.CompareAndSwap(false, true) {
		return errors.New("injected task failure for profiles-tailer resume test")
	}
	return nil
}
