package samza

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
)

// ServeIntrospection starts the runner's HTTP introspection server on addr
// (stdlib only; opt-in — nothing listens unless this is called):
//
//	/metrics       plain-text dump of every job's merged metrics
//	/healthz       per-task liveness as JSON; 503 when any task has failed
//	/debug/pprof/  runtime profiling (CPU, heap, goroutines, ...)
//
// It returns the bound address (useful with ":0") and a shutdown function.
// The handlers read live registries, so numbers move between requests while
// jobs run.
func (r *JobRunner) ServeIntrospection(addr string) (string, func(context.Context) error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("samza: introspection listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", r.handleMetrics)
	mux.HandleFunc("/healthz", r.handleHealthz)
	// Register pprof by hand: the package's init only touches
	// http.DefaultServeMux, which this server deliberately avoids.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// Mount handlers registered through Handle before serving started, then
	// publish the mux so later registrations attach to it directly.
	r.httpMu.Lock()
	for pattern, h := range r.httpExtra {
		mux.Handle(pattern, h)
	}
	r.httpExtra = nil
	r.httpMux = mux
	r.httpMu.Unlock()
	srv := &http.Server{Handler: mux}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Serve returns ErrServerClosed after Shutdown; real accept errors
		// surface through the failing requests, not this goroutine.
		_ = srv.Serve(ln)
	}()
	shutdown := func(ctx context.Context) error {
		err := srv.Shutdown(ctx)
		wg.Wait()
		return err
	}
	return ln.Addr().String(), shutdown, nil
}

// handleMetrics dumps every job's merged snapshot in the registry text
// format, sections separated by "# job <name>" headers. Lag gauges are
// refreshed from the broker first, so the dump reflects current backlog.
func (r *JobRunner) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	jobs := r.Jobs()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Spec.Name < jobs[j].Spec.Name })
	for _, j := range jobs {
		j.UpdateLags()
		fmt.Fprintf(w, "# job %s\n", j.Spec.Name)
		j.MetricsSnapshot().WriteText(w)
	}
}

// handleHealthz reports per-task liveness for every job. The response is
// 200 with {"status":"ok"} while no task has failed, 503 otherwise — the
// shape load balancers and kubelet-style probes expect.
func (r *JobRunner) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	type health struct {
		Status string                       `json:"status"`
		Jobs   map[string]map[string]string `json:"jobs"`
	}
	out := health{Status: "ok", Jobs: map[string]map[string]string{}}
	for _, j := range r.Jobs() {
		tasks := j.TaskHealth()
		out.Jobs[j.Spec.Name] = tasks
		for _, state := range tasks {
			if state == "failed" {
				out.Status = "failed"
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if out.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(out)
}
