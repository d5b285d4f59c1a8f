package bench

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/monitor"
	"samzasql/internal/samza"
)

// spinFilterTask burns CPU per message before filtering, so every profile
// capture window has samples to attribute and the pre-loaded backlog drains
// over many windows — the profiling analog of the monitor smoke's
// throttled task (a sleep would idle the CPU sampler instead).
type spinFilterTask struct {
	filter NativeFilterTask
	spins  int
	sink   int64
}

func (t *spinFilterTask) Process(env samza.IncomingMessageEnvelope, c samza.MessageCollector, coord samza.Coordinator) error {
	for i := 0; i < t.spins; i++ {
		t.sink += int64(i * i)
	}
	return t.filter.Process(env, c, coord)
}

// Init implements samza.StreamTask. The filter is a field, not embedded,
// so its block path is not promoted: every message goes through Process.
func (t *spinFilterTask) Init(ctx *samza.TaskContext) error { return t.filter.Init(ctx) }

// ProfileSmokeReport is what RunProfileSmoke measured and verified.
type ProfileSmokeReport struct {
	Addr string
	// Messages is the drained workload size.
	Messages int
	// Containers is how many distinct containers contributed CPU batches to
	// the merged /profile answer (must be >= 2).
	Containers int
	// Functions is the merged top-N size /profile returned.
	Functions int
	// TopFunction is the hottest merged function by flat CPU.
	TopFunction string
	// Artifacts lists the raw /profile JSON files written for CI upload.
	Artifacts []string
}

// RunProfileSmoke is the CI smoke behind `make profile-smoke` and
// `-figure profile-smoke`: a two-container profiled job drains a CPU-bound
// backlog while the monitor tails __profiles; the check asserts over HTTP
// that /profile answers a cluster-merged, non-empty top-N with
// contributions from both containers, then saves the raw JSON answers as
// CI artifacts.
func RunProfileSmoke(messages int, artifactsDir string) (ProfileSmokeReport, error) {
	cfg := DefaultConfig()
	cfg.Messages = messages
	cfg.Partitions = 4
	cfg.Containers = 2
	cfg.Monitor = true
	cfg.MetricsInterval = 10 * time.Millisecond
	cfg.ProfileInterval = 40 * time.Millisecond
	cfg.ProfileWindow = 20 * time.Millisecond
	e, err := newEnv(cfg)
	if err != nil {
		return ProfileSmokeReport{}, err
	}
	_, stopMon, err := e.startMonitor(cfg, nil)
	if err != nil {
		return ProfileSmokeReport{}, err
	}
	defer stopMon()
	addr, shutdown, err := e.runner.ServeIntrospection("127.0.0.1:0")
	if err != nil {
		return ProfileSmokeReport{}, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = shutdown(ctx)
	}()
	if err := e.loadOrders(cfg); err != nil {
		return ProfileSmokeReport{}, err
	}
	outTopic := "bench-out"
	if err := e.broker.EnsureTopic(outTopic, kafka.TopicConfig{Partitions: cfg.Partitions}); err != nil {
		return ProfileSmokeReport{}, err
	}

	const jobName = "profile-smoke"
	job := &samza.JobSpec{
		Name:            jobName,
		Inputs:          []samza.StreamSpec{{Topic: "orders"}},
		Containers:      cfg.Containers,
		CommitEvery:     1000,
		MetricsInterval: cfg.MetricsInterval,
		ProfileInterval: cfg.ProfileInterval,
		ProfileWindow:   cfg.ProfileWindow,
		Config:          map[string]string{},
		TaskFactory: func() samza.StreamTask {
			return &spinFilterTask{filter: NativeFilterTask{Output: outTopic}, spins: 20_000}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	rj, err := e.runner.Submit(ctx, job)
	if err != nil {
		return ProfileSmokeReport{}, err
	}
	defer rj.Stop()
	base := "http://" + addr

	// The smoke's contract is the HTTP surface: /profile must merge CPU
	// batches from both containers into a non-empty top-N while the job
	// drains.
	profileURL := base + "/profile?top=20&window=1m&job=" + jobName
	var resp monitor.ProfileResponse
	if err := awaitHTTP(base+"/profile", smokeTimeout, func() (bool, error) {
		if err := getJSON(profileURL, &resp); err != nil {
			return false, nil
		}
		return resp.Containers >= 2 && len(resp.Functions) > 0, nil
	}); err != nil {
		return ProfileSmokeReport{}, fmt.Errorf("profile smoke: /profile never merged cpu batches from both containers: %w", err)
	}
	for _, f := range resp.Functions {
		if f.Name == "" || f.Cum < f.Flat {
			return ProfileSmokeReport{}, fmt.Errorf("profile smoke: malformed hot function %+v", f)
		}
	}
	if _, err := awaitProcessed(rj, int64(messages), start, smokeTimeout); err != nil {
		return ProfileSmokeReport{}, err
	}

	report := ProfileSmokeReport{
		Addr:        addr,
		Messages:    messages,
		Containers:  resp.Containers,
		Functions:   len(resp.Functions),
		TopFunction: resp.Functions[0].Name,
	}
	// Save the raw per-kind answers for CI artifact upload.
	if artifactsDir != "" {
		if err := os.MkdirAll(artifactsDir, 0o755); err != nil {
			return ProfileSmokeReport{}, fmt.Errorf("profile smoke: artifacts dir: %w", err)
		}
		for _, kind := range []string{monitor.HotKindCPU, monitor.HotKindHeap, monitor.HotKindGoroutine} {
			path := filepath.Join(artifactsDir, "profile-"+kind+".json")
			if err := saveURL(base+"/profile?top=64&window=5m&kind="+kind+"&job="+jobName, path); err != nil {
				return ProfileSmokeReport{}, fmt.Errorf("profile smoke: saving %s artifact: %w", kind, err)
			}
			report.Artifacts = append(report.Artifacts, path)
		}
	}
	return report, nil
}

// saveURL fetches a URL and writes the raw body to path.
func saveURL(url, path string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.ReadFrom(resp.Body); err != nil {
		return err
	}
	return nil
}

// FormatProfileSmoke renders the smoke outcome for the terminal and CI log.
func FormatProfileSmoke(r ProfileSmokeReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile smoke (%d messages, introspection on %s)\n", r.Messages, r.Addr)
	fmt.Fprintf(&sb, "  /profile merged %d functions from %d containers; hottest: %s\n",
		r.Functions, r.Containers, r.TopFunction)
	if len(r.Artifacts) > 0 {
		fmt.Fprintf(&sb, "  artifacts: %s\n", strings.Join(r.Artifacts, ", "))
	}
	return sb.String()
}
