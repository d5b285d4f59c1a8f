package monitor

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"time"

	"samzasql/internal/samza"
)

// DefaultQueryWindow is the lookback /query uses when the request does not
// pass one.
const DefaultQueryWindow = 30 * time.Second

// QuerySeries is one series' raw points in a query response.
type QuerySeries struct {
	Job       string  `json:"job"`
	Container int     `json:"container"`
	Name      string  `json:"name"`
	Points    []Point `json:"points"`
}

// QueryResponse is the /query JSON payload. Value carries the aggregate
// (quantile nanoseconds, summed rate, window max); Series carries raw
// points when agg=raw.
type QueryResponse struct {
	Metric   string        `json:"metric"`
	Agg      string        `json:"agg"`
	WindowMS int64         `json:"window-ms"`
	Job      string        `json:"job,omitempty"`
	Value    int64         `json:"value"`
	Rate     float64       `json:"rate,omitempty"`
	Count    int64         `json:"count"`
	Series   []QuerySeries `json:"series,omitempty"`
}

// Register mounts the monitor's endpoints on the runner's introspection
// server: /query (windowed aggregates) and /alerts (active + recent
// transitions).
func (m *Monitor) Register(r *samza.JobRunner) {
	r.Handle("/query", m.QueryHandler())
	r.Handle("/alerts", m.AlertsHandler())
}

// QueryHandler answers windowed queries over the store:
//
//	GET /query?metric=<name>&agg=raw|rate|p50|p95|p99|max[&job=<job>][&container=<n>][&window=<dur>]
//
// Quantile aggregates merge the log-bucketed histogram deltas exactly
// across containers; rate sums counter increments with restart guards;
// raw returns the per-series points. Unknown metrics return empty results
// (Count 0), not errors — absence of data is an answer.
func (m *Monitor) QueryHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		metric := req.URL.Query().Get("metric")
		if metric == "" {
			http.Error(w, "missing ?metric=", http.StatusBadRequest)
			return
		}
		agg := req.URL.Query().Get("agg")
		if agg == "" {
			agg = "raw"
		}
		job := req.URL.Query().Get("job")
		container := -1
		if c := req.URL.Query().Get("container"); c != "" {
			n, err := strconv.Atoi(c)
			if err != nil {
				http.Error(w, "bad ?container=: "+err.Error(), http.StatusBadRequest)
				return
			}
			container = n
		}
		window := DefaultQueryWindow
		if ws := req.URL.Query().Get("window"); ws != "" {
			d, err := time.ParseDuration(ws)
			if err != nil || d <= 0 {
				http.Error(w, "bad ?window= (want a positive Go duration like 5s)", http.StatusBadRequest)
				return
			}
			window = d
		}
		resp, ok := m.Query(metric, agg, job, container, window, time.Now())
		if !ok {
			http.Error(w, "bad ?agg= (want raw, rate, p50, p95, p99 or max)", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	})
}

// Query evaluates one windowed query against the store. The bool is false
// only for an unknown agg.
func (m *Monitor) Query(metric, agg, job string, container int, window time.Duration, now time.Time) (QueryResponse, bool) {
	from := Window(now, window)
	resp := QueryResponse{
		Metric:   metric,
		Agg:      agg,
		WindowMS: window.Milliseconds(),
		Job:      job,
	}
	switch agg {
	case "raw":
		ranges := m.store.Range(job, container, metric, from)
		for k, pts := range ranges {
			resp.Series = append(resp.Series, QuerySeries{
				Job: k.Job, Container: k.Container, Name: k.Name, Points: pts,
			})
			resp.Count += int64(len(pts))
		}
		sort.Slice(resp.Series, func(i, j int) bool {
			a, b := resp.Series[i], resp.Series[j]
			if a.Job != b.Job {
				return a.Job < b.Job
			}
			return a.Container < b.Container
		})
	case "rate":
		rate, events := m.store.CounterRate(job, container, metric, from)
		resp.Rate = rate
		resp.Value = int64(rate)
		resp.Count = events
	case "p50", "p95", "p99":
		q := map[string]float64{"p50": 0.50, "p95": 0.95, "p99": 0.99}[agg]
		resp.Value, resp.Count = m.store.QuantileWindow(job, container, metric, q, from)
	case "max":
		resp.Value = m.store.MaxWindow(job, container, metric, from)
		_, resp.Count = m.store.QuantileWindow(job, container, metric, 1.0, from)
	default:
		return QueryResponse{}, false
	}
	return resp, true
}

// AlertsResponse is the /alerts JSON payload.
type AlertsResponse struct {
	Active []ActiveAlert  `json:"active"`
	Recent []AlertMessage `json:"recent"`
}

// AlertsHandler serves the active alerts and the recent transition log.
func (m *Monitor) AlertsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		resp := AlertsResponse{
			Active: m.ActiveAlerts(),
			Recent: m.RecentAlerts(64),
		}
		if resp.Active == nil {
			resp.Active = []ActiveAlert{}
		}
		if resp.Recent == nil {
			resp.Recent = []AlertMessage{}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	})
}
