package monitor

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
	"samzasql/internal/samza"
	"samzasql/internal/yarn"
)

func testEnv() (*kafka.Broker, *samza.JobRunner) {
	b := kafka.NewBroker()
	c := yarn.NewCluster()
	c.AddNode("n1", yarn.Resource{VCores: 64, MemoryMB: 1 << 20})
	c.AddNode("n2", yarn.Resource{VCores: 64, MemoryMB: 1 << 20})
	return b, samza.NewJobRunner(b, c)
}

func produceN(t *testing.T, b *kafka.Broker, topic string, partition int32, n int, prefix string) {
	t.Helper()
	for i := 0; i < n; i++ {
		_, err := b.Produce(topic, kafka.Message{
			Partition: partition,
			Key:       []byte(fmt.Sprintf("%s-%d", prefix, i)),
			Value:     []byte(fmt.Sprintf("%s-v%d", prefix, i)),
			Timestamp: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestStoreRingBounds pins the memory bound: a series holds at most
// Capacity samples, evicting the oldest.
func TestStoreRingBounds(t *testing.T) {
	st := NewStore(4)
	k := SeriesKey{Job: "j", Container: 0, Name: "c"}
	for i := 0; i < 10; i++ {
		st.Observe(k, KindCounter, int64(i), int64(i*100))
	}
	pts := st.Range("j", -1, "c", 0)[k]
	if len(pts) != 4 {
		t.Fatalf("ring holds %d points, want 4", len(pts))
	}
	for i, p := range pts {
		if want := int64(6 + i); p.TimeMillis != want {
			t.Fatalf("point %d at t=%d, want t=%d (oldest evicted first)", i, p.TimeMillis, want)
		}
	}
	if got, _ := st.Latest(k); got.Value != 900 {
		t.Fatalf("latest = %+v, want value 900", got)
	}

	hk := SeriesKey{Job: "j", Container: 0, Name: "h"}
	for i := 0; i < 10; i++ {
		var h metrics.Histogram
		h.Observe(int64(i + 1))
		st.ObserveHist(hk, int64(i), h.Snapshot())
	}
	if info := st.Series(); len(info) != 2 {
		t.Fatalf("store has %d series, want 2", len(info))
	}
	for _, info := range st.Series() {
		if info.Samples > 4 {
			t.Fatalf("series %v holds %d samples, capacity 4", info.Key, info.Samples)
		}
	}
}

// TestStoreWindowQuantileMergesContainers checks the /query p99 semantics:
// per-container window deltas merged exactly across containers, excluding
// observations that predate the window.
func TestStoreWindowQuantileMergesContainers(t *testing.T) {
	st := NewStore(64)
	rng := rand.New(rand.NewSource(3))
	var h0, h1, union metrics.Histogram

	// Pre-window noise on container 0 only: large values that must NOT
	// surface in the windowed quantile.
	for i := 0; i < 1000; i++ {
		h0.Observe(5_000_000 + rng.Int63n(1000))
	}
	st.ObserveHist(SeriesKey{Job: "j", Container: 0, Name: "op.ns"}, 1000, h0.Snapshot())
	st.ObserveHist(SeriesKey{Job: "j", Container: 1, Name: "op.ns"}, 1000, h1.Snapshot())

	// In-window observations on both containers.
	for i := 0; i < 2000; i++ {
		v := 1000 + rng.Int63n(10_000)
		if i%2 == 0 {
			h0.Observe(v)
		} else {
			h1.Observe(v)
		}
		union.Observe(v)
	}
	st.ObserveHist(SeriesKey{Job: "j", Container: 0, Name: "op.ns"}, 2000, h0.Snapshot())
	st.ObserveHist(SeriesKey{Job: "j", Container: 1, Name: "op.ns"}, 2000, h1.Snapshot())

	got, count := st.QuantileWindow("j", -1, "op.ns", 0.99, 1500)
	want := union.Snapshot()
	if count != want.Count {
		t.Fatalf("windowed count = %d, want %d (pre-window excluded, both containers included)", count, want.Count)
	}
	// The windowed delta carries the cumulative Max (documented on
	// DeltaSince), so compare at bucket granularity: same bucket as the
	// union's p99, i.e. within the layout's 1/8 relative error.
	wantP99 := want.Quantile(0.99)
	if diff := got - wantP99; diff < 0 || float64(diff) > float64(wantP99)/8+1 {
		t.Fatalf("windowed merged p99 = %d, want union p99 %d (same bucket)", got, wantP99)
	}
	if got >= 5_000_000 {
		t.Fatalf("windowed p99 %d polluted by pre-window observations", got)
	}
	// Per-container filter returns just that container's share.
	_, c0 := st.QuantileWindow("j", 0, "op.ns", 0.99, 1500)
	if c0 != 1000 {
		t.Fatalf("container-0 windowed count = %d, want 1000", c0)
	}
}

// TestCounterRateResetGuard pins restart behavior: a counter that goes
// backwards re-baselines at its new value instead of producing a negative
// rate, and the new value counts as fresh events.
func TestCounterRateResetGuard(t *testing.T) {
	st := NewStore(16)
	k := SeriesKey{Job: "j", Container: 0, Name: "msgs"}
	st.Observe(k, KindCounter, 0, 100)
	st.Observe(k, KindCounter, 1000, 200) // +100
	st.Observe(k, KindCounter, 2000, 50)  // restart: counts 50
	st.Observe(k, KindCounter, 3000, 150) // +100
	rate, events := st.CounterRate("j", -1, "msgs", 0)
	if events != 250 {
		t.Fatalf("events = %d, want 250 (100 + restart 50 + 100)", events)
	}
	if rate <= 0 {
		t.Fatalf("rate = %f, want positive", rate)
	}
}

// TestAlertManagerSustainAndDedup pins the state machine: a condition must
// hold Sustain consecutive evaluations to fire, repeated violations while
// firing publish nothing, and resolution needs Sustain clean evaluations.
func TestAlertManagerSustainAndDedup(t *testing.T) {
	am := newAlertManager()
	r := Rule{Name: "lag", Kind: RuleLag, Threshold: 10, Sustain: 3}
	seq := []struct {
		violated bool
		want     AlertState // "" = no transition
	}{
		{true, ""}, {true, ""}, {true, StateFiring}, // sustain 3 to fire
		{true, ""}, {true, ""}, // dedup while firing
		{false, ""}, {true, ""}, // clean streak broken: stays firing
		{false, ""}, {false, ""}, {false, StateResolved}, // sustain 3 to resolve
		{false, ""}, // already resolved: nothing
	}
	for i, step := range seq {
		got := am.observe(r, "job", "kafka.lag.in.0", step.violated, 42, "r", int64(1000+i))
		switch {
		case step.want == "" && got != nil:
			t.Fatalf("step %d: unexpected transition %+v", i, got)
		case step.want != "" && (got == nil || got.State != step.want):
			t.Fatalf("step %d: transition = %+v, want state %q", i, got, step.want)
		}
	}
	if active := am.Active(); len(active) != 0 {
		t.Fatalf("resolved alert still active: %+v", active)
	}
	recent := am.Recent(0)
	if len(recent) != 2 || recent[0].State != StateFiring || recent[1].State != StateResolved {
		t.Fatalf("transition history = %+v, want [firing resolved]", recent)
	}
	if recent[1].SinceMillis != recent[0].TimeMillis {
		t.Fatalf("resolved record since=%d, want firing time %d", recent[1].SinceMillis, recent[0].TimeMillis)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline([]int64{0, 5, 10}); got != "▁▄█" {
		t.Fatalf("sparkline = %q, want ▁▄█", got)
	}
	if got := Sparkline([]int64{0, 0}); got != "▁▁" {
		t.Fatalf("all-zero sparkline = %q", got)
	}
	if got := Sparkline(nil); got != "" {
		t.Fatalf("empty sparkline = %q", got)
	}
}

// slowTask simulates a task that cannot keep up: a fixed per-message delay
// makes an injected burst accumulate consumer lag, then drain.
type slowTask struct {
	delay     time.Duration
	processed *atomic.Int64
}

func (t *slowTask) Init(*samza.TaskContext) error { return nil }

func (t *slowTask) ProcessBatch(envs []samza.IncomingMessageEnvelope, _ samza.MessageCollector, _ samza.Coordinator, _ int64) error {
	for range envs {
		if t.delay > 0 {
			time.Sleep(t.delay)
		}
		t.processed.Add(1)
	}
	return nil
}

// TestLagAlertFiresAndResolves is the end-to-end alert demo: an injected
// hot partition drives per-partition lag over the rule threshold, the
// monitor publishes a firing record on __alerts, and draining the backlog
// publishes the matching resolved record.
func TestLagAlertFiresAndResolves(t *testing.T) {
	// Hot partition: a burst the slow task needs ~1s to drain.
	checkLagAlert(t, 500)
}

// TestLagAlertFiresOnBurstInsideOneBlock injects a burst smaller than one
// poll's block: the consumer fetches all of it at once, so only lag counted
// from the offsets the task has finished shows the ~0.4s backlog.
func TestLagAlertFiresOnBurstInsideOneBlock(t *testing.T) {
	checkLagAlert(t, 200)
}

// checkLagAlert runs the alert demo over a burst of the given size.
func checkLagAlert(t *testing.T, burst int) {
	t.Helper()
	b, runner := testEnv()
	if err := b.EnsureTopic("in", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	produceN(t, b, "in", 0, burst, "burst")

	var processed atomic.Int64
	job := &samza.JobSpec{
		Name:            "laggy",
		Inputs:          []samza.StreamSpec{{Topic: "in"}},
		TaskFactory:     func() samza.StreamTask { return &slowTask{delay: 2 * time.Millisecond, processed: &processed} },
		MetricsInterval: 10 * time.Millisecond,
	}

	mon, err := Start(Config{
		Broker:       b,
		Rules:        []Rule{LagRule(100, time.Second, 2)},
		EvalInterval: 10 * time.Millisecond,
		Health: func() map[string]map[string]string {
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Stop()

	tailer, err := samza.NewTailer[AlertMessage](b, DefaultAlertsTopic)
	if err != nil {
		t.Fatal(err)
	}
	defer tailer.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := runner.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Stop()

	// Collect alert records until the resolved transition (or timeout).
	actx, acancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer acancel()
	var records []*AlertMessage
	for {
		batch, err := tailer.Poll(actx, 16)
		if err != nil {
			t.Fatalf("alerts poll after %d records: %v (processed=%d)", len(records), err, processed.Load())
		}
		records = append(records, batch...)
		if len(records) > 0 && records[len(records)-1].State == StateResolved {
			break
		}
	}

	if len(records) < 2 {
		t.Fatalf("want firing + resolved, got %d records", len(records))
	}
	firing, resolved := records[0], records[len(records)-1]
	if firing.State != StateFiring || firing.Subject != "kafka.lag.in.0" || firing.Job != "laggy" {
		t.Fatalf("first record = %+v, want firing kafka.lag.in.0", firing)
	}
	if firing.Value < 100 {
		t.Fatalf("firing lag %d below threshold 100", firing.Value)
	}
	if !strings.Contains(firing.Reason, "lag") {
		t.Fatalf("firing reason %q does not explain the lag", firing.Reason)
	}
	if resolved.State != StateResolved || resolved.Subject != firing.Subject {
		t.Fatalf("last record = %+v, want resolved for %s", resolved, firing.Subject)
	}
	if resolved.SinceMillis != firing.TimeMillis {
		t.Fatalf("resolved since=%d, want firing time %d", resolved.SinceMillis, firing.TimeMillis)
	}
	// Dedup: exactly one firing and one resolved for the subject.
	for _, rec := range records[1 : len(records)-1] {
		if rec.Subject == firing.Subject {
			t.Fatalf("duplicate transition while firing: %+v", rec)
		}
	}
	// The monitor's store answered the same story: messages flowed.
	if _, events := mon.Store().CounterRate("laggy", -1, "messages-processed", 0); events == 0 {
		t.Fatal("store ingested no messages-processed increments")
	}
}

// TestTailersResumeAcrossContainerRestart is the restart-coverage test: a
// job whose task crashes mid-stream restarts under the YARN sim while the
// monitor tails __metrics. The tailer must keep consuming (snapshots from
// both attempts arrive), and the store's reset guard must keep windowed
// rates sane (no negative, no double-count beyond the checkpoint replay
// window).
func TestTailersResumeAcrossContainerRestart(t *testing.T) {
	b, runner := testEnv()
	if err := b.CreateTopic("in", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	const total = 200
	produceN(t, b, "in", 0, total, "m")

	var processed atomic.Int64
	var crashed atomic.Bool
	job := &samza.JobSpec{
		Name:   "crashy",
		Inputs: []samza.StreamSpec{{Topic: "in"}},
		// Blocks of CommitEvery messages: the counters and checkpoints
		// advance block by block, so the first attempt publishes progress
		// before its crash and the replay window stays CommitEvery.
		BatchSize:       10,
		CommitEvery:     10,
		MaxRestarts:     2,
		MetricsInterval: 5 * time.Millisecond,
		TaskFactory: func() samza.StreamTask {
			// The per-message delay keeps processing slower than the 5ms
			// snapshot interval, so both attempts publish intermediate
			// counter values and the restart reset is observable.
			return &crashingTask{crashAt: 80, delay: 200 * time.Microsecond, crashed: &crashed, processed: &processed}
		},
	}

	mon, err := Start(Config{
		Broker:       b,
		Rules:        []Rule{}, // pure ingestion test
		EvalInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := runner.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		return processed.Load() >= total && crashed.Load()
	}, "all messages processed across the crash")
	statuses := rj.Stop()
	failed := 0
	for _, st := range statuses {
		if st.Err != nil && strings.Contains(st.Err.Error(), "injected task failure") {
			failed++
		}
	}
	if failed != 1 || len(statuses) != 2 {
		t.Fatalf("%d injected failures over %d container attempts, want one failure and a restarted second attempt", failed, len(statuses))
	}

	// Closed flips on a Final snapshot (attempt 1's crash flush also sets
	// it); the real completion signal is the reset from attempt 2's
	// snapshots reaching the store.
	flatten := func() []Point {
		var all []Point
		for _, p := range mon.Store().Range("crashy", -1, "messages-processed", 0) {
			all = append(all, p...)
		}
		return all
	}
	sawReset := func() bool {
		all := flatten()
		for i := 1; i < len(all); i++ {
			if all[i].Value < all[i-1].Value {
				return true
			}
		}
		return false
	}
	waitFor(t, 5*time.Second, sawReset, "counter reset from the restarted attempt's snapshots")
	if !closed(mon.Store(), "crashy", 0) {
		t.Fatal("no final snapshot ingested")
	}

	// Reset-guarded event total: at least every message once (at-least-once
	// delivery), at most total + the checkpoint replay window. waitFor: the
	// second attempt's final flush may still be in flight.
	waitFor(t, 5*time.Second, func() bool {
		_, events := mon.Store().CounterRate("crashy", -1, "messages-processed", 0)
		return events >= total
	}, "windowed event total covering every message")
	_, events := mon.Store().CounterRate("crashy", -1, "messages-processed", 0)
	if events > total+2*10 {
		t.Fatalf("windowed events = %d: double-counting beyond the replay window (total %d, CommitEvery 10)", events, total)
	}
}

// crashingTask fails once at crashAt messages, then processes normally.
type crashingTask struct {
	crashAt   int64
	delay     time.Duration
	crashed   *atomic.Bool
	processed *atomic.Int64
}

func (t *crashingTask) Init(*samza.TaskContext) error { return nil }

func (t *crashingTask) ProcessBatch(envs []samza.IncomingMessageEnvelope, _ samza.MessageCollector, _ samza.Coordinator, _ int64) error {
	for range envs {
		if t.delay > 0 {
			time.Sleep(t.delay)
		}
		n := t.processed.Add(1)
		if n == t.crashAt && t.crashed.CompareAndSwap(false, true) {
			return fmt.Errorf("injected task failure")
		}
	}
	return nil
}

// TestTaskFlapRule drives the health-based rule directly through a fake
// HealthSource: a task flapping between running and failed fires, then
// resolves once it settles.
func TestTaskFlapRule(t *testing.T) {
	b, _ := testEnv()
	var state atomic.Value
	state.Store("running")
	flip := func() { // toggles the reported state
		if state.Load() == "running" {
			state.Store("failed")
		} else {
			state.Store("running")
		}
	}
	mon, err := Start(Config{
		Broker:       b,
		Rules:        []Rule{TaskFlapRule(3, 5*time.Second)},
		EvalInterval: 5 * time.Millisecond,
		Health: func() map[string]map[string]string {
			return map[string]map[string]string{
				"j": {"Partition-0": state.Load().(string)},
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Stop()

	// Flap a few times with gaps larger than the eval interval so each
	// transition is observed.
	for i := 0; i < 5; i++ {
		time.Sleep(15 * time.Millisecond)
		flip()
	}
	waitFor(t, 5*time.Second, func() bool {
		for _, a := range mon.ActiveAlerts() {
			if a.Rule == "task-flap" && a.Subject == "Partition-0" {
				return true
			}
		}
		return false
	}, "task-flap alert firing")
}

// TestStoreRingAtExactCapacity pins the eviction boundary the capacity ring
// must not get wrong: exactly capacity samples fit without eviction, the
// (capacity+1)-th evicts exactly the oldest.
func TestStoreRingAtExactCapacity(t *testing.T) {
	st := NewStore(4)
	k := SeriesKey{Job: "j", Container: 0, Name: "g"}
	for i := 0; i < 4; i++ {
		st.Observe(k, KindGauge, int64(i), int64(i))
	}
	pts := st.Range("j", -1, "g", 0)[k]
	if len(pts) != 4 || pts[0].TimeMillis != 0 {
		t.Fatalf("at capacity: %+v (nothing should be evicted yet)", pts)
	}
	st.Observe(k, KindGauge, 4, 4)
	pts = st.Range("j", -1, "g", 0)[k]
	if len(pts) != 4 || pts[0].TimeMillis != 1 || pts[3].TimeMillis != 4 {
		t.Fatalf("one past capacity: %+v (want t=1..4)", pts)
	}
}

// closed reports whether the (job, container) pair published its final
// snapshot.
func closed(st *Store, job string, container int) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.closed[SeriesKey{Job: job, Container: container}]
}

// TestStoreClosedContainerPruning pins the gauge-surface pruning boundary:
// a container's final snapshot removes its gauges from sums and series
// listings, while other containers' series survive.
func TestStoreClosedContainerPruning(t *testing.T) {
	st := NewStore(16)
	ingest := func(container int, v int64, final bool) {
		st.IngestSnapshot("j", container, 100, metrics.Snapshot{
			Gauges: map[string]int64{"lag.in.0": v},
		}, final)
	}
	ingest(0, 40, false)
	ingest(1, 60, false)
	if got := st.GaugeSum("j", "lag."); got != 100 {
		t.Fatalf("live sum = %d, want 100", got)
	}
	// Container 0 closes out: its gauge must vanish from sums and series.
	ingest(0, 40, true)
	if !closed(st, "j", 0) {
		t.Fatal("container 0 not marked closed after final snapshot")
	}
	if closed(st, "j", 1) {
		t.Fatal("container 1 wrongly marked closed")
	}
	if got := st.GaugeSum("j", "lag."); got != 60 {
		t.Fatalf("sum after close = %d, want 60 (closed container pruned)", got)
	}
	series := st.GaugeSeries("j", "lag.", 0)
	if len(series) != 1 {
		t.Fatalf("series after close = %v, want container 1 only", series)
	}
	for k := range series {
		if k.Container != 1 {
			t.Fatalf("closed container %d still listed", k.Container)
		}
	}
}
