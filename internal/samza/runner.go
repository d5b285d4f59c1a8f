package samza

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
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

// NewJobRunner builds a runner over the broker and cluster.
func NewJobRunner(b *kafka.Broker, c *yarn.Cluster) *JobRunner {
	r := &JobRunner{
		Broker:  b,
		Cluster: c,
		Resource: yarn.Resource{
			VCores:   1,
			MemoryMB: 1024,
		},
	}
	return r
}

// RunningJob is a handle to a submitted job.
type RunningJob struct {
	Spec *JobSpec
	app  *yarn.Application

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
	rj := &RunningJob{Spec: job}
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
	return j.app.Wait()
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
