package samza

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/kv"
)

// incrementTask keeps one counter per key in a changelog-backed store and
// injects a crash mid-commit-interval, after the crashing message's own
// increment has been written.
type incrementTask struct {
	ctx       *TaskContext
	crashed   *atomic.Bool
	delivered *atomic.Int64 // crash trigger, shared across incarnations
	done      *atomic.Bool
	crashAt   int64
	lastOff   int64
}

func (t *incrementTask) Init(ctx *TaskContext) error {
	t.ctx = ctx
	return nil
}

func (t *incrementTask) Process(env IncomingMessageEnvelope, c MessageCollector, _ Coordinator) error {
	st := t.ctx.Store("counts")
	var n int64
	if v, ok := st.Get(env.Key); ok {
		n, _ = strconv.ParseInt(string(v), 10, 64)
	}
	st.Put(env.Key, []byte(strconv.FormatInt(n+1, 10)))
	if t.delivered.Add(1) == t.crashAt && t.crashed.CompareAndSwap(false, true) {
		return errors.New("injected crash after the increment was written")
	}
	t.lastOff = env.Offset
	if env.Offset == t.lastExpectedOffset() {
		t.done.Store(true)
	}
	return nil
}

func (t *incrementTask) lastExpectedOffset() int64 { return 999 }

// TestCrashReplaysOntoStateAheadOfOffsets pins the commit-order guarantee of
// the write-through store stack end to end: every store write reaches the
// changelog before it returns, so the state a restarted task restores is at
// or ahead of its committed offsets, never behind. The task counts messages
// per key without tracking offsets in its state, so the replayed suffix —
// the offsets between the last commit and the crash — is applied a second
// time, and exactly once more: each key's final count is total/keys plus
// the number of its replayed deliveries. A count below that would mean
// state restored behind the offsets (increments lost); above it, a replay
// reaching back past the last commit.
func TestCrashReplaysOntoStateAheadOfOffsets(t *testing.T) {
	const (
		total       = 1000
		keys        = 20
		commitEvery = 100
		crashAt     = 350 // the 350th delivery, offset 349: after commits at 100/200/300
	)
	b, r := testEnv()
	if err := b.CreateTopic("in", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		_, err := b.Produce("in", kafka.Message{
			Partition: 0,
			Key:       []byte(fmt.Sprintf("k%02d", i%keys)),
			Value:     []byte("x"),
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var crashed, done atomic.Bool
	var delivered atomic.Int64
	job := &JobSpec{
		Name:        "crash-replay",
		Inputs:      []StreamSpec{{Topic: "in"}},
		Stores:      []StoreSpec{{Name: "counts", Changelog: true}},
		CommitEvery: commitEvery,
		MaxRestarts: 2,
		TaskFactory: func() StreamTask {
			return &incrementTask{crashed: &crashed, delivered: &delivered, done: &done, crashAt: crashAt}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := r.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, done.Load, "last input offset processed after crash")
	rj.Stop()

	if !crashed.Load() {
		t.Fatal("crash was never injected")
	}
	// The restart resumes from the last committed offset, 300.
	committed := int64(crashAt / commitEvery * commitEvery)
	replayed := map[string]int64{}
	for off := committed; off < crashAt; off++ {
		replayed[fmt.Sprintf("k%02d", off%keys)]++
	}
	if want := int64(total) + crashAt - committed; delivered.Load() != want {
		t.Fatalf("delivered %d messages, want %d: the replay must cover offsets %d-%d exactly",
			delivered.Load(), want, committed, crashAt-1)
	}

	// Rebuild the state from the changelog exactly as a further restart
	// would.
	restored, err := kv.NewChangelogStore(kv.NewStore(), b, job.ChangelogTopic("counts"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != keys {
		t.Fatalf("restored %d keys, want %d", restored.Len(), keys)
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%02d", k)
		v, ok := restored.Get([]byte(key))
		if !ok {
			t.Fatalf("key %s missing from final state", key)
		}
		n, _ := strconv.ParseInt(string(v), 10, 64)
		if want := total/keys + replayed[key]; n != want {
			t.Fatalf("key %s = %d, want %d (%d plus %d replayed deliveries): state restored behind the committed offsets or replayed past them",
				key, n, want, total/keys, replayed[key])
		}
	}
}
