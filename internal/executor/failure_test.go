package executor

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/kv"
	"samzasql/internal/operators"
	"samzasql/internal/samza"
	"samzasql/internal/yarn"
)

// crashingTask wraps the SamzaSQL task, injecting one failure after a fixed
// number of processed messages — simulating the task crash the paper's
// fault-tolerance design (§4.3) must absorb: replayed messages after
// restart must neither double-count window state nor re-emit output.
type crashingTask struct {
	*Task
	crashAfter int64
	processed  *atomic.Int64
	crashed    *atomic.Bool
}

// ProcessBatch shadows the embedded Task's entry point: the container hands
// tasks whole blocks, so the crash is injected at block granularity (the
// error positions the entire block as failed, replaying every message in
// it).
func (t *crashingTask) ProcessBatch(envs []samza.IncomingMessageEnvelope, c samza.MessageCollector, coord samza.Coordinator, pollNs int64) error {
	if err := t.Task.ProcessBatch(envs, c, coord, pollNs); err != nil {
		return err
	}
	if t.processed.Add(int64(len(envs))) >= t.crashAfter && t.crashed.CompareAndSwap(false, true) {
		return errors.New("injected failure after window state update")
	}
	return nil
}

// TestSlidingWindowExactlyOnceAcrossFailure runs the Listing 6 sliding
// window as a real Samza job, crashes the task mid-stream (after the last
// checkpoint, so messages replay), and verifies the §4.3 claim: every input
// order appears in the output exactly once, with the same window sums a
// failure-free run produces.
func TestSlidingWindowExactlyOnceAcrossFailure(t *testing.T) {
	const totalOrders = 2000
	query := `SELECT STREAM rowtime, orderId, productId, units,
		  SUM(units) OVER (PARTITION BY productId ORDER BY rowtime
		    RANGE INTERVAL '10' SECOND PRECEDING) s
		FROM Orders`

	run := func(crashAfter int64) map[int64][]any {
		e, _ := testEngine(t, 1, totalOrders)
		p, err := e.Prepare(query)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Broker.EnsureTopic(p.OutputTopic, kafka.TopicConfig{Partitions: 1}); err != nil {
			t.Fatal(err)
		}
		if err := e.ZK.CreateRecursive(zkQueryPath(p.JobName), []byte(p.Stmt.String())); err != nil {
			t.Fatal(err)
		}
		var processed atomic.Int64
		var crashed atomic.Bool
		job := &samza.JobSpec{
			Name:        p.JobName,
			Inputs:      []samza.StreamSpec{{Topic: "orders"}},
			Containers:  1,
			Stores:      p.Program.Stores,
			CommitEvery: 500,
			MaxRestarts: 2,
			Config: map[string]string{
				"samzasql.zk.query.path": zkQueryPath(p.JobName),
				"samzasql.output.topic":  p.OutputTopic,
			},
			TaskFactory: func() samza.StreamTask {
				inner := NewTask(e.Catalog, e.ZK, true)
				if crashAfter <= 0 {
					return inner
				}
				return &crashingTask{Task: inner, crashAfter: crashAfter, processed: &processed, crashed: &crashed}
			},
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rj, err := e.Runner.Submit(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		defer rj.Stop()

		byOrder := map[int64][]any{}
		deadline := time.Now().Add(15 * time.Second)
		for len(byOrder) < totalOrders && time.Now().Before(deadline) {
			for _, m := range drainNew(t, e.Broker, p.OutputTopic) {
				row, err := p.Program.OutputCodec.DecodeRow(m.Value, nil)
				if err != nil {
					t.Fatal(err)
				}
				byOrder[row[1].(int64)] = row
			}
			time.Sleep(10 * time.Millisecond)
		}
		if crashAfter > 0 && !crashed.Load() {
			t.Fatal("failure was never injected")
		}
		// Duplicate detection: total emitted messages vs distinct orders.
		out := drainNew(t, e.Broker, p.OutputTopic)
		if len(out) != len(byOrder) {
			t.Fatalf("emitted %d messages for %d distinct orders: duplicates across replay", len(out), len(byOrder))
		}
		if len(byOrder) != totalOrders {
			t.Fatalf("only %d of %d orders in output", len(byOrder), totalOrders)
		}
		return byOrder
	}

	// Crash after 700 messages: 200 past the 500-message checkpoint, so
	// replay is guaranteed to re-deliver processed messages.
	withFailure := run(700)
	clean := run(0)

	for orderID, want := range clean {
		got, ok := withFailure[orderID]
		if !ok {
			t.Fatalf("order %d missing after failure", orderID)
		}
		if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
			t.Fatalf("order %d differs across failure:\n  clean: %v\n  crash: %v", orderID, want, got)
		}
	}
}

// TestChangelogLossFailsWindowTask deletes the window store's changelog
// topic under a running window job. The next block's changelog write is
// refused: the task must fail with a *kv.ChangelogError naming the store and
// the topic, instead of panicking, and must write no checkpoint past the
// last block the changelog holds.
func TestChangelogLossFailsWindowTask(t *testing.T) {
	const before, after = 600, 300
	e, gen := testEngine(t, 1, before)
	p, err := e.Prepare(`SELECT STREAM rowtime, orderId, units,
		  SUM(units) OVER (PARTITION BY productId ORDER BY rowtime
		    RANGE INTERVAL '10' SECOND PRECEDING) s
		FROM Orders`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Broker.EnsureTopic(p.OutputTopic, kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.ZK.CreateRecursive(zkQueryPath(p.JobName), []byte(p.Stmt.String())); err != nil {
		t.Fatal(err)
	}
	job := &samza.JobSpec{
		Name:        p.JobName,
		Inputs:      []samza.StreamSpec{{Topic: "orders"}},
		Containers:  1,
		Stores:      p.Program.Stores,
		CommitEvery: 1,
		Config: map[string]string{
			"samzasql.zk.query.path": zkQueryPath(p.JobName),
			"samzasql.output.topic":  p.OutputTopic,
		},
		TaskFactory: func() samza.StreamTask { return NewTask(e.Catalog, e.ZK, true) },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := e.Runner.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Stop()

	// Every row of the first batch out means its state is on the changelog
	// and its offsets committed: the window flushes before it emits.
	deadline := time.Now().Add(15 * time.Second)
	for emitted := 0; emitted < before; emitted += len(drainNew(t, e.Broker, p.OutputTopic)) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d rows out before the changelog was deleted", emitted, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	changelog := job.ChangelogTopic(operators.SlidingStoreName)
	if err := e.Broker.DeleteTopic(changelog); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < after; i++ {
		row, key, value, err := gen.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Broker.Produce("orders", kafka.Message{Partition: -1, Key: key, Value: value, Timestamp: row[0].(int64)}); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan []yarn.ContainerStatus, 1)
	go func() { done <- rj.Wait() }()
	var statuses []yarn.ContainerStatus
	select {
	case statuses = <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("the job kept running after its changelog topic was deleted")
	}
	var ce *kv.ChangelogError
	var taskErr error
	for _, st := range statuses {
		if errors.As(st.Err, &ce) {
			taskErr = st.Err
		}
	}
	if taskErr == nil {
		t.Fatalf("no container failed with a changelog error: %+v", statuses)
	}
	if ce.Topic != changelog || !errors.Is(taskErr, kafka.ErrUnknownTopic) ||
		!strings.Contains(taskErr.Error(), operators.SlidingStoreName) || !strings.Contains(taskErr.Error(), changelog) {
		t.Fatalf("task error %q does not name store %s and topic %s", taskErr, operators.SlidingStoreName, changelog)
	}
	cpm, err := samza.NewCheckpointManager(e.Broker, job)
	if err != nil {
		t.Fatal(err)
	}
	cp, ok, err := cpm.Read(samza.TaskNameFor(0))
	if err != nil || !ok {
		t.Fatalf("checkpoint read: found %v, %v", ok, err)
	}
	if got := cp.Offsets["orders"]; got != before {
		t.Fatalf("checkpoint at offset %d, want %d: the failed block must not commit", got, before)
	}
}
