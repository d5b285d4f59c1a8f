package samza

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
	"samzasql/internal/trace"
	"samzasql/internal/yarn"
)

// JobRunner is the Samza YARN client analog: it plans the task assignment,
// provisions checkpoint and changelog topics, and submits one YARN container
// per Samza container. Each job gets its own application master (the YARN
// Application) — Samza's masterless design (§2).
type JobRunner struct {
	Broker  *kafka.Broker
	Cluster *yarn.Cluster
	// Resource is the per-container resource request.
	Resource yarn.Resource

	mu   sync.Mutex
	jobs []*RunningJob

	// events publishes the runner-level lifecycle event log (job
	// start/stop, YARN allocations and failures) on the trace stream as
	// Job "", Container -1 batches. nil until armed by the first
	// tracing-enabled Submit or by EnableEventLog.
	events atomic.Pointer[Publisher]

	// Extra introspection handlers (the monitor's /query and /alerts).
	// Registered onto the mux when ServeIntrospection starts; patterns added
	// after that attach to the live mux directly.
	httpMu    sync.Mutex
	httpMux   *http.ServeMux
	httpExtra map[string]http.Handler
}

// Handle registers an extra handler on the introspection HTTP server —
// how subsystems layered above samza (the monitor's /query and /alerts)
// surface endpoints without this package importing them. Safe to call
// before or after ServeIntrospection; handlers registered before serving
// are mounted when the server starts.
func (r *JobRunner) Handle(pattern string, h http.Handler) {
	r.httpMu.Lock()
	defer r.httpMu.Unlock()
	if r.httpMux != nil {
		// ServeMux is safe for concurrent registration and serving.
		r.httpMux.Handle(pattern, h)
		return
	}
	if r.httpExtra == nil {
		r.httpExtra = map[string]http.Handler{}
	}
	r.httpExtra[pattern] = h
}

// NewJobRunner builds a runner over the broker and cluster. The cluster's
// lifecycle events (container allocations, exits, restarts, node deaths)
// feed the runner's event log.
func NewJobRunner(b *kafka.Broker, c *yarn.Cluster) *JobRunner {
	r := &JobRunner{
		Broker:  b,
		Cluster: c,
		Resource: yarn.Resource{
			VCores:   1,
			MemoryMB: 1024,
		},
	}
	c.SetEventHook(r.publishEvent)
	return r
}

// EnableEventLog arms lifecycle-event publishing onto DefaultTraceTopic.
// Submit arms it automatically for tracing-enabled jobs; call this to
// capture job and YARN events without sampling any messages. If the topic
// cannot be created the log stays unarmed: observability must never take
// down the cluster it observes.
func (r *JobRunner) EnableEventLog() {
	if r.events.Load() != nil {
		return
	}
	if err := r.Broker.EnsureTopic(DefaultTraceTopic, kafka.TopicConfig{Partitions: 1}); err != nil {
		return
	}
	r.events.CompareAndSwap(nil, NewPublisher(r.Broker, DefaultTraceTopic, "", -1))
}

// publishEvent writes one lifecycle event to the trace stream as a
// runner-level batch. A no-op until the event log is armed; publish errors
// are dropped.
func (r *JobRunner) publishEvent(kind, detail string) {
	pub := r.events.Load()
	if pub == nil {
		return
	}
	ev := trace.Event{TimeNs: time.Now().UnixNano(), Kind: kind, Detail: detail}
	_ = pub.Publish(&TraceBatchMessage{Events: []trace.Event{ev}}, false)
}

// RunningJob is a handle to a submitted job.
type RunningJob struct {
	Spec   *JobSpec
	app    *yarn.Application
	runner *JobRunner

	mu         sync.Mutex
	containers []*Container
}

// Submit validates the job, plans the assignment and launches containers on
// the cluster. The job runs until Stop is called or ctx is cancelled.
func (r *JobRunner) Submit(ctx context.Context, job *JobSpec) (*RunningJob, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	a, err := planAssignment(r.Broker, job)
	if err != nil {
		return nil, err
	}
	cpm, err := NewCheckpointManager(r.Broker, job)
	if err != nil {
		return nil, err
	}
	inputPartitions := int32(len(a.taskPartitions))
	if job.TraceSampleRate > 0 || job.TraceInterval > 0 {
		r.EnableEventLog()
	}
	r.publishEvent("job-start", job.Name)

	rj := &RunningJob{Spec: job, runner: r}
	specs := make([]yarn.ContainerSpec, len(a.containerTasks))
	for ci, taskIdxs := range a.containerTasks {
		partitions := make([]int32, len(taskIdxs))
		for i, t := range taskIdxs {
			partitions[i] = a.taskPartitions[t]
		}
		specs[ci] = yarn.ContainerSpec{
			Resource:    r.Resource,
			MaxRestarts: job.MaxRestarts,
			Run: func(runCtx context.Context) error {
				// A fresh Container per attempt: restart rebuilds state
				// from changelogs and resumes from checkpoints.
				cont, err := newContainer(ci, job, r.Broker, cpm, partitions, inputPartitions)
				if err != nil {
					return err
				}
				rj.mu.Lock()
				rj.containers = append(rj.containers, cont)
				rj.mu.Unlock()
				return cont.Run(runCtx)
			},
		}
	}
	app, err := r.Cluster.Submit(ctx, job.Name, specs)
	if err != nil {
		return nil, fmt.Errorf("samza: submitting job %q: %w", job.Name, err)
	}
	rj.app = app
	r.mu.Lock()
	r.jobs = append(r.jobs, rj)
	r.mu.Unlock()
	return rj, nil
}

// Jobs lists every job this runner has submitted (including stopped ones),
// for the introspection endpoints.
func (r *JobRunner) Jobs() []*RunningJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*RunningJob, len(r.jobs))
	copy(out, r.jobs)
	return out
}

// Stop cancels all containers and waits for them to exit.
func (j *RunningJob) Stop() []yarn.ContainerStatus {
	j.app.Stop()
	st := j.app.Wait()
	if j.runner != nil {
		j.runner.publishEvent("job-stop", j.Spec.Name)
	}
	return st
}

// Wait blocks until every container exits on its own (shutdown request or
// failure without restart budget).
func (j *RunningJob) Wait() []yarn.ContainerStatus {
	return j.app.Wait()
}

// MetricsSnapshot merges all container metric registries: counters and
// gauges sum across containers (the per-job totals the paper's harness
// multiplies out, §5.1); histograms merge count-weighted.
func (j *RunningJob) MetricsSnapshot() metrics.Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := metrics.NewSnapshot()
	for _, c := range j.containers {
		out.Merge(c.Metrics.Snapshot())
	}
	return out
}

// TaskHealth merges per-task liveness across containers. Later container
// attempts overwrite earlier ones for the same task name, so a restarted
// task reports its current attempt's state.
func (j *RunningJob) TaskHealth() map[string]string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := map[string]string{}
	for _, c := range j.containers {
		for name, state := range c.TaskHealth() {
			out[name] = state
		}
	}
	return out
}

// UpdateLags refreshes consumer-lag gauges on every container and returns
// the job-wide total outstanding messages.
func (j *RunningJob) UpdateLags() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	var total int64
	for _, c := range j.containers {
		total += c.UpdateLags()
	}
	return total
}

// RecentTraces merges the recent sampled span trees of every container
// attempt, newest first. Syncs each container's ring into its recent-trace
// store first, so spans not yet published still show.
func (j *RunningJob) RecentTraces() []*trace.TraceData {
	j.mu.Lock()
	defer j.mu.Unlock()
	lists := make([][]*trace.TraceData, 0, len(j.containers))
	for _, c := range j.containers {
		lists = append(lists, c.RecentTraces())
	}
	return trace.Merge(lists...)
}

// WriteTraces renders every job's recent sampled traces: a per-stage
// critical-path breakdown followed by the newest span trees. Shared by the
// /debug/traces endpoint and the shell's \trace command.
func (r *JobRunner) WriteTraces(w io.Writer) {
	jobs := r.Jobs()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Spec.Name < jobs[j].Spec.Name })
	const maxTrees = 5
	for _, j := range jobs {
		fmt.Fprintf(w, "# job %s\n", j.Spec.Name)
		traces := j.RecentTraces()
		trace.WriteBreakdown(w, trace.Breakdown(traces))
		for i, t := range traces {
			if i >= maxTrees {
				fmt.Fprintf(w, "... %d older traces elided\n", len(traces)-maxTrees)
				break
			}
			fmt.Fprintln(w)
			t.Format(w)
		}
		fmt.Fprintln(w)
	}
}

// ContainerMetrics returns each live container attempt's registry.
func (j *RunningJob) ContainerMetrics() []*metrics.Registry {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]*metrics.Registry, 0, len(j.containers))
	for _, c := range j.containers {
		out = append(out, c.Metrics)
	}
	return out
}
