package monitor

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
	"samzasql/internal/profile"
	"samzasql/internal/samza"
)

func batchAt(job string, container int, tMillis int64, cpu []profile.FuncStat) *samza.ProfileBatchMessage {
	return &samza.ProfileBatchMessage{
		Header:       samza.Header{Job: job, Container: container, TimeMillis: tMillis},
		WindowMillis: 100, CPU: cpu,
	}
}

// TestHotStoreMergeAcrossContainers pins the cluster-merge semantics: CPU
// stats from different containers sum per function, the contributing
// container count is distinct publishers, and Flat orders the result.
func TestHotStoreMergeAcrossContainers(t *testing.T) {
	h := NewHotStore(8)
	h.Ingest(batchAt("j", 0, 100, []profile.FuncStat{
		{Name: "hot", Flat: 300, Cum: 500},
		{Name: "warm", Flat: 100, Cum: 200},
	}))
	h.Ingest(batchAt("j", 1, 110, []profile.FuncStat{
		{Name: "hot", Flat: 250, Cum: 400},
		{Name: "cold", Flat: 10, Cum: 10},
	}))
	// Second batch from container 0: deltas accumulate across batches too.
	h.Ingest(batchAt("j", 0, 120, []profile.FuncStat{
		{Name: "warm", Flat: 50, Cum: 60},
	}))
	top, containers := h.TopN("j", HotKindCPU, 10, 0)
	if containers != 2 {
		t.Fatalf("containers = %d, want 2", containers)
	}
	if len(top) != 3 || top[0].Name != "hot" || top[0].Flat != 550 || top[0].Cum != 900 {
		t.Fatalf("merged top = %+v, want hot 550/900 first", top)
	}
	if top[1].Name != "warm" || top[1].Flat != 150 {
		t.Fatalf("warm did not accumulate across batches: %+v", top[1])
	}
	// Truncation keeps the hottest.
	top, _ = h.TopN("j", HotKindCPU, 1, 0)
	if len(top) != 1 || top[0].Name != "hot" {
		t.Fatalf("top-1 = %+v", top)
	}
	// Other jobs are invisible unless job filter is empty.
	h.Ingest(batchAt("other", 0, 130, []profile.FuncStat{{Name: "hot", Flat: 1, Cum: 1}}))
	if top, _ = h.TopN("j", HotKindCPU, 10, 0); top[0].Flat != 550 {
		t.Fatalf("job filter leaked: %+v", top[0])
	}
	if top, _ = h.TopN("", HotKindCPU, 10, 0); top[0].Flat != 551 {
		t.Fatalf("empty job filter should merge every job: %+v", top[0])
	}
}

// TestHotStoreWindowAndKinds pins the window filter and the per-kind
// semantics: cpu/heap sum in-window deltas, goroutine takes each
// container's newest in-window level only.
func TestHotStoreWindowAndKinds(t *testing.T) {
	h := NewHotStore(8)
	old := batchAt("j", 0, 100, []profile.FuncStat{{Name: "stale", Flat: 999, Cum: 999}})
	old.HeapDelta = []profile.FuncStat{{Name: "alloc", Flat: 1 << 20, Cum: 1 << 20}}
	old.Goroutines = []profile.FuncStat{{Name: "park", Flat: 50, Cum: 50}}
	h.Ingest(old)
	cur := batchAt("j", 0, 5000, []profile.FuncStat{{Name: "fresh", Flat: 10, Cum: 10}})
	cur.HeapDelta = []profile.FuncStat{{Name: "alloc", Flat: 4096, Cum: 4096}}
	cur.Goroutines = []profile.FuncStat{{Name: "park", Flat: 7, Cum: 7}}
	h.Ingest(cur)

	if top, _ := h.TopN("j", HotKindCPU, 10, 4000); len(top) != 1 || top[0].Name != "fresh" {
		t.Fatalf("window filter kept stale cpu: %+v", top)
	}
	if top, _ := h.TopN("j", HotKindHeap, 10, 4000); len(top) != 1 || top[0].Flat != 4096 {
		t.Fatalf("window filter kept stale heap: %+v", top)
	}
	// Goroutines are a level: latest in-window batch wins, no summing.
	if top, _ := h.TopN("j", HotKindGoroutine, 10, 0); len(top) != 1 || top[0].Flat != 7 {
		t.Fatalf("goroutine kind summed instead of taking latest level: %+v", top)
	}
	// Fully out-of-window queries are empty answers, not errors.
	if top, containers := h.TopN("j", HotKindCPU, 10, 9000); len(top) != 0 || containers != 0 {
		t.Fatalf("future window returned %+v containers=%d", top, containers)
	}
}

// TestHotStoreRingEviction pins the memory bound at batch granularity: a
// container retains at most capacity batches, oldest evicted first.
func TestHotStoreRingEviction(t *testing.T) {
	h := NewHotStore(4)
	for i := 0; i < 10; i++ {
		h.Ingest(batchAt("j", 0, int64(i), []profile.FuncStat{{Name: "f", Flat: 1, Cum: 1}}))
	}
	if got := h.Batches("j"); got != 4 {
		t.Fatalf("ring holds %d batches, want 4", got)
	}
	// Only the surviving 4 batches (t=6..9) contribute.
	top, _ := h.TopN("j", HotKindCPU, 10, 0)
	if len(top) != 1 || top[0].Flat != 4 {
		t.Fatalf("evicted batches still contribute: %+v", top)
	}
	if jobs := h.Jobs(); len(jobs) != 1 || jobs[0] != "j" {
		t.Fatalf("jobs = %v", jobs)
	}
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
	if !st.Closed("j", 0) {
		t.Fatal("container 0 not marked closed after final snapshot")
	}
	if st.Closed("j", 1) {
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

// busyTask burns CPU per message so capture windows have samples to fold.
type busyTask struct{ sink int64 }

func (b *busyTask) Init(ctx *samza.TaskContext) error { return nil }

func (b *busyTask) Process(env samza.IncomingMessageEnvelope, col samza.MessageCollector, coord samza.Coordinator) error {
	for i := 0; i < 20000; i++ {
		b.sink += int64(i * i)
	}
	return nil
}

// TestMonitorServesClusterMergedProfiles is the e2e: a two-container job
// with continuous profiling on, the monitor tailing __profiles, and
// /profile answering cluster-merged top-N hot functions with contributions
// from both containers.
func TestMonitorServesClusterMergedProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CPU capture windows")
	}
	b, runner := testEnv()
	if err := b.EnsureTopic("in", kafka.TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	m, err := Start(Config{Broker: b})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	produceN(t, b, "in", 0, 400, "a")
	produceN(t, b, "in", 1, 400, "b")
	produceN(t, b, "in", 2, 400, "c")
	produceN(t, b, "in", 3, 400, "d")
	job := &samza.JobSpec{
		Name:            "hotjob",
		Inputs:          []samza.StreamSpec{{Topic: "in"}},
		Containers:      2,
		TaskFactory:     func() samza.StreamTask { return &busyTask{} },
		ProfileInterval: 40 * time.Millisecond,
		ProfileWindow:   20 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := runner.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Stop()

	// The job drains its input quickly; keep the process CPU-busy so every
	// capture window has samples to fold (an idle window folds to nothing).
	stopBurn := make(chan struct{})
	defer close(stopBurn)
	go func() {
		var sink atomic.Int64
		for {
			select {
			case <-stopBurn:
				return
			default:
				for i := 0; i < 1000; i++ {
					sink.Add(int64(i))
				}
			}
		}
	}()

	// Both containers must land CPU-bearing batches in the store.
	waitFor(t, 30*time.Second, func() bool {
		_, containers := m.HotStore().TopN("hotjob", HotKindCPU, 10, 0)
		return containers >= 2
	}, "cpu profile batches from both containers")

	srv := httptest.NewServer(m.ProfileHandler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/profile?top=10&window=1m&job=hotjob")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var resp ProfileResponse
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Containers < 2 {
		t.Fatalf("/profile merged %d containers, want >= 2", resp.Containers)
	}
	if len(resp.Functions) == 0 {
		t.Fatal("/profile returned no hot functions")
	}
	for _, f := range resp.Functions {
		if f.Name == "" || f.Flat < 0 || f.Cum < f.Flat {
			t.Fatalf("malformed hot function %+v (want cum >= flat >= 0)", f)
		}
	}
	// The goroutine kind answers too, from the same batches.
	gr, err := srv.Client().Get(srv.URL + "/profile?kind=goroutine&job=hotjob")
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Body.Close()
	var gresp ProfileResponse
	if err := json.NewDecoder(gr.Body).Decode(&gresp); err != nil {
		t.Fatal(err)
	}
	if len(gresp.Functions) == 0 {
		t.Fatal("/profile?kind=goroutine returned no functions")
	}
	// Bad params are 400s, not panics.
	for _, q := range []string{"?kind=bogus", "?top=-1", "?window=never"} {
		br, err := srv.Client().Get(srv.URL + "/profile" + q)
		if err != nil {
			t.Fatal(err)
		}
		br.Body.Close()
		if br.StatusCode != 400 {
			t.Fatalf("GET /profile%s = %d, want 400", q, br.StatusCode)
		}
	}

	// The text renderer shows the same data for \profile.
	var sb strings.Builder
	m.WriteProfile(&sb, 10, time.Minute, time.Now())
	if !strings.Contains(sb.String(), "hotjob") || !strings.Contains(sb.String(), "hot functions (cpu)") {
		t.Fatalf("WriteProfile output missing table:\n%s", sb.String())
	}
}
