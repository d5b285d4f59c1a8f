package samza

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"samzasql/internal/kafka"
)

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestIntrospectionEndpoints(t *testing.T) {
	b, runner := testEnv()
	if err := b.EnsureTopic("in", kafka.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.EnsureTopic("out", kafka.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	produceN(t, b, "in", 0, 10, "a")
	produceN(t, b, "in", 1, 10, "b")

	addr, shutdown, err := runner.ServeIntrospection("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(context.Background())

	job := &JobSpec{
		Name:        "introspected",
		Inputs:      []StreamSpec{{Topic: "in"}},
		TaskFactory: func() StreamTask { return &passthroughTask{out: "out"} },
		CommitEvery: 5,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := runner.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Stop()
	waitFor(t, 5*time.Second, func() bool {
		return rj.MetricsSnapshot().Counters["messages-processed"] >= 20
	}, "messages processed")

	base := "http://" + addr
	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# job introspected",
		"counter messages-processed 20",
		"histogram task.Partition-0.process-ns",
		"gauge kafka.lag.in.0 0",
		"gauge kafka.lag.in.1 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = httpGet(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", code, body)
	}
	var h struct {
		Status string                       `json:"status"`
		Jobs   map[string]map[string]string `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz is not JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz status %q, want ok", h.Status)
	}
	tasks := h.Jobs["introspected"]
	if tasks["Partition-0"] != "running" || tasks["Partition-1"] != "running" {
		t.Fatalf("task health %v, want both running", tasks)
	}

	code, body = httpGet(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ status %d body %.80s", code, body)
	}
}

// TestIntrospectionExtraHandlers checks JobRunner.Handle registration both
// before and after the server starts — the hook the monitor uses to mount
// /query and /alerts without samza importing it.
func TestIntrospectionExtraHandlers(t *testing.T) {
	_, runner := testEnv()
	runner.Handle("/before", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "registered before serve")
	}))
	addr, shutdown, err := runner.ServeIntrospection("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(context.Background())
	runner.Handle("/after", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "registered after serve")
	}))

	base := "http://" + addr
	if code, body := httpGet(t, base+"/before"); code != http.StatusOK || body != "registered before serve" {
		t.Fatalf("/before status %d body %q", code, body)
	}
	if code, body := httpGet(t, base+"/after"); code != http.StatusOK || body != "registered after serve" {
		t.Fatalf("/after status %d body %q", code, body)
	}
}

// leakyTask retains a buffer per message, every one allocated in
// retainLeakedPayload: the shape of a UDAF whose state grows without bound.
type leakyTask struct{ kept [][]byte }

func (l *leakyTask) Init(*TaskContext) error { return nil }

func (l *leakyTask) ProcessBatch(envs []IncomingMessageEnvelope, _ MessageCollector, _ Coordinator, _ int64) error {
	for range envs {
		l.kept = append(l.kept, l.retainLeakedPayload())
	}
	return nil
}

// retainLeakedPayload allocates 512 KiB, the runtime's mean heap sampling
// interval, so each call is sampled into the heap profile with probability
// 1-1/e and twenty calls all go unsampled with odds under 1e-8.
//
//go:noinline
func (l *leakyTask) retainLeakedPayload() []byte { return make([]byte, 512<<10) }

// TestHeapProfileNamesLeakingTask is the seeded-fault check for the one
// profiler: a task that leaks heap is diagnosable from the introspection
// server alone, because /debug/pprof/heap's in-use stacks name the method
// that keeps the memory.
func TestHeapProfileNamesLeakingTask(t *testing.T) {
	b, runner := testEnv()
	if err := b.EnsureTopic("in", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	produceN(t, b, "in", 0, 20, "a")
	addr, shutdown, err := runner.ServeIntrospection("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rj, err := runner.Submit(ctx, &JobSpec{
		Name:        "leaky",
		Inputs:      []StreamSpec{{Topic: "in"}},
		TaskFactory: func() StreamTask { return &leakyTask{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Stop()
	waitFor(t, 5*time.Second, func() bool {
		return rj.MetricsSnapshot().Counters["messages-processed"] >= 20
	}, "messages processed")

	// Allocation profiles are published as of the last completed GC.
	runtime.GC()
	code, body := httpGet(t, "http://"+addr+"/debug/pprof/heap?debug=1")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/heap status %d", code)
	}
	// debug=1 lists each sampled stack as a "<in-use objects>: <in-use
	// bytes> [...] @ <pcs>" line followed by its "#"-prefixed frames; only
	// a stack with live objects counts.
	inUse := false
	var objects int64
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "#") {
			if objects > 0 && strings.Contains(line, "(*leakyTask).retainLeakedPayload") {
				inUse = true
			}
			continue
		}
		if _, err := fmt.Sscanf(line, "%d:", &objects); err != nil {
			objects = 0
		}
	}
	if !inUse {
		t.Fatalf("heap profile has no in-use stack through (*leakyTask).retainLeakedPayload:\n%.2000s", body)
	}
}
