package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"samzasql/internal/profile"
	"samzasql/internal/samza"
)

// DefaultHotCapacity is the per-(job, container) batch-ring size when the
// config does not choose one. At the default 1s capture interval it retains
// ~64s of profile history per container.
const DefaultHotCapacity = 64

// DefaultHotTopN is how many functions /profile and \profile return when
// the request does not choose.
const DefaultHotTopN = 20

// Profile kinds the hot store aggregates, as /profile's ?kind= values.
const (
	// HotKindCPU is per-function CPU time over capture windows (a delta:
	// window values sum across batches).
	HotKindCPU = "cpu"
	// HotKindHeap is per-function allocated bytes between captures (also a
	// delta).
	HotKindHeap = "heap"
	// HotKindGoroutine is per-function live goroutine counts (a level: the
	// newest batch per container wins).
	HotKindGoroutine = "goroutine"
)

// hotKey identifies one container's batch ring.
type hotKey struct {
	Job       string
	Container int
}

// hotRing is a fixed-capacity ring of profile batches, oldest overwritten
// first — the same bounded-memory discipline as the scalar series store,
// but at batch granularity: each batch already carries top-N folded
// functions, so memory is O(containers × capacity × topN) forever.
type hotRing struct {
	buf   []*samza.ProfileBatchMessage
	start int
	n     int
}

func (r *hotRing) add(m *samza.ProfileBatchMessage) {
	if r.n < cap(r.buf) {
		r.buf = r.buf[:r.n+1]
		r.buf[(r.start+r.n)%cap(r.buf)] = m
		r.n++
		return
	}
	r.buf[r.start] = m
	r.start = (r.start + 1) % cap(r.buf)
}

// at returns the i-th oldest retained batch.
func (r *hotRing) at(i int) *samza.ProfileBatchMessage {
	return r.buf[(r.start+i)%cap(r.buf)]
}

// HotFunc is one function's cluster-merged aggregate over a query window.
type HotFunc struct {
	// Name is the fully-qualified function name.
	Name string `json:"name"`
	// Flat is the value attributed to the function's own frames: CPU
	// nanoseconds, allocated bytes, or goroutine count by kind.
	Flat int64 `json:"flat"`
	// Cum is the value of samples the function appears anywhere in.
	Cum int64 `json:"cum"`
}

// HotStore aggregates profile batches into cluster-wide windowed top-N hot
// functions. Ingestion is single-writer (the monitor run loop); reads copy
// out under an RWMutex, mirroring the series store.
type HotStore struct {
	mu       sync.RWMutex
	capacity int
	rings    map[hotKey]*hotRing
}

// NewHotStore builds a store retaining capacity batches per container.
func NewHotStore(capacity int) *HotStore {
	if capacity < 2 {
		capacity = 2
	}
	return &HotStore{capacity: capacity, rings: map[hotKey]*hotRing{}}
}

// Ingest files one profile batch.
func (h *HotStore) Ingest(m *samza.ProfileBatchMessage) {
	if m == nil {
		return
	}
	k := hotKey{Job: m.Job, Container: m.Container}
	h.mu.Lock()
	r := h.rings[k]
	if r == nil {
		r = &hotRing{buf: make([]*samza.ProfileBatchMessage, 0, h.capacity)}
		h.rings[k] = r
	}
	r.add(m)
	h.mu.Unlock()
}

// Jobs returns the distinct job names with retained profiles, sorted.
func (h *HotStore) Jobs() []string {
	h.mu.RLock()
	seen := map[string]bool{}
	for k := range h.rings {
		seen[k.Job] = true
	}
	h.mu.RUnlock()
	out := make([]string, 0, len(seen))
	for j := range seen {
		out = append(out, j)
	}
	sort.Strings(out)
	return out
}

// Batches reports how many batches are retained for a job ("" = all jobs).
func (h *HotStore) Batches(job string) int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	total := 0
	for k, r := range h.rings {
		if job == "" || k.Job == job {
			total += r.n
		}
	}
	return total
}

// TopN returns the cluster-merged top-n hot functions of one kind for a job
// ("" merges every job) over the window [fromMillis, now], sorted by Flat
// descending, plus the number of distinct containers that contributed.
// CPU and heap batches are window deltas, so the merge sums them; the
// goroutine kind is a level, so only each container's newest in-window
// batch contributes.
func (h *HotStore) TopN(job, kind string, n int, fromMillis int64) ([]HotFunc, int) {
	if n <= 0 {
		n = DefaultHotTopN
	}
	h.mu.RLock()
	var lists [][]profile.FuncStat
	containers := 0
	for k, r := range h.rings {
		if job != "" && k.Job != job {
			continue
		}
		contributed := false
		if kind == HotKindGoroutine {
			// Newest in-window batch with a goroutine fold wins.
			for i := r.n - 1; i >= 0; i-- {
				m := r.at(i)
				if m.TimeMillis < fromMillis {
					break
				}
				if len(m.Goroutines) > 0 {
					lists = append(lists, m.Goroutines)
					contributed = true
					break
				}
			}
		} else {
			for i := 0; i < r.n; i++ {
				m := r.at(i)
				if m.TimeMillis < fromMillis {
					continue
				}
				var stats []profile.FuncStat
				if kind == HotKindHeap {
					stats = m.HeapDelta
				} else {
					stats = m.CPU
				}
				if len(stats) > 0 {
					lists = append(lists, stats)
					contributed = true
				}
			}
		}
		if contributed {
			containers++
		}
	}
	h.mu.RUnlock()
	merged := profile.Merge(lists...)
	out := make([]HotFunc, 0, n)
	for _, s := range profile.Truncate(merged, n) {
		out = append(out, HotFunc{Name: s.Name, Flat: s.Flat, Cum: s.Cum})
	}
	return out, containers
}

// CPUTotals sums the whole sampled CPU — nanoseconds and samples, every
// function included — of the CPU batches TopN merges for the same job and
// window: the denominator a function's share of sampled CPU is taken of.
func (h *HotStore) CPUTotals(job string, fromMillis int64) (nanos, samples int64) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for k, r := range h.rings {
		if job != "" && k.Job != job {
			continue
		}
		for i := 0; i < r.n; i++ {
			if m := r.at(i); m.TimeMillis >= fromMillis && len(m.CPU) > 0 {
				nanos += m.CPUTotal
				samples += m.CPUSamples
			}
		}
	}
	return nanos, samples
}

// ProfileResponse is the /profile JSON payload.
type ProfileResponse struct {
	Job        string    `json:"job,omitempty"`
	Kind       string    `json:"kind"`
	WindowMS   int64     `json:"window-ms"`
	Containers int       `json:"containers"`
	Batches    int       `json:"batches"`
	Functions  []HotFunc `json:"functions"`
}

// HotStore exposes the profile aggregation store.
func (m *Monitor) HotStore() *HotStore { return m.hot }

// ProfileHandler answers cluster-merged hot-function queries:
//
//	GET /profile?[top=N][&kind=cpu|heap|goroutine][&job=<job>][&window=<dur>]
//
// Functions merge across every container that published profile batches in
// the window; flat/cum semantics follow pprof's. An empty function list is
// an answer (no batches in the window), not an error.
func (m *Monitor) ProfileHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		kind := req.URL.Query().Get("kind")
		if kind == "" {
			kind = HotKindCPU
		}
		if kind != HotKindCPU && kind != HotKindHeap && kind != HotKindGoroutine {
			http.Error(w, "bad ?kind= (want cpu, heap or goroutine)", http.StatusBadRequest)
			return
		}
		top := DefaultHotTopN
		if ts := req.URL.Query().Get("top"); ts != "" {
			n, err := strconv.Atoi(ts)
			if err != nil || n <= 0 {
				http.Error(w, "bad ?top= (want a positive integer)", http.StatusBadRequest)
				return
			}
			top = n
		}
		window := DefaultQueryWindow
		if ws := req.URL.Query().Get("window"); ws != "" {
			d, err := time.ParseDuration(ws)
			if err != nil || d <= 0 {
				http.Error(w, "bad ?window= (want a positive Go duration like 30s)", http.StatusBadRequest)
				return
			}
			window = d
		}
		job := req.URL.Query().Get("job")
		resp := m.ProfileQuery(job, kind, top, window, time.Now())
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	})
}

// ProfileQuery evaluates one hot-function query against the store.
func (m *Monitor) ProfileQuery(job, kind string, top int, window time.Duration, now time.Time) ProfileResponse {
	from := Window(now, window)
	funcs, containers := m.hot.TopN(job, kind, top, from)
	if funcs == nil {
		funcs = []HotFunc{}
	}
	return ProfileResponse{
		Job:        job,
		Kind:       kind,
		WindowMS:   window.Milliseconds(),
		Containers: containers,
		Batches:    m.hot.Batches(job),
		Functions:  funcs,
	}
}

// WriteProfile renders the hot-function table the shell's \profile command
// shows: cluster-merged CPU top-N with flat/cum milliseconds and share of
// the window's sampled CPU, plus the top allocating functions.
func (m *Monitor) WriteProfile(w io.Writer, top int, window time.Duration, now time.Time) {
	from := Window(now, window)
	jobs := m.hot.Jobs()
	if len(jobs) == 0 {
		fmt.Fprintln(w, "(no profile batches ingested yet — jobs need ProfileInterval > 0)")
		return
	}
	for _, job := range jobs {
		cpu, containers := m.hot.TopN(job, HotKindCPU, top, from)
		fmt.Fprintf(w, "job %-24s containers=%d window=%s\n", job, containers, window)
		if len(cpu) == 0 {
			fmt.Fprintln(w, "  (no cpu samples in window)")
		} else {
			var total int64
			for _, f := range cpu {
				total += f.Flat
			}
			fmt.Fprintf(w, "  %-52s %10s %10s %6s\n", "hot functions (cpu)", "flat-ms", "cum-ms", "flat%")
			for _, f := range cpu {
				share := 0.0
				if total > 0 {
					share = 100 * float64(f.Flat) / float64(total)
				}
				fmt.Fprintf(w, "  %-52s %10.1f %10.1f %5.1f%%\n",
					trimFuncName(f.Name, 52), float64(f.Flat)/1e6, float64(f.Cum)/1e6, share)
			}
		}
		heap, _ := m.hot.TopN(job, HotKindHeap, 5, from)
		if len(heap) > 0 {
			fmt.Fprintf(w, "  %-52s %10s %10s\n", "top allocators (heap delta)", "flat-KiB", "cum-KiB")
			for _, f := range heap {
				fmt.Fprintf(w, "  %-52s %10.1f %10.1f\n",
					trimFuncName(f.Name, 52), float64(f.Flat)/1024, float64(f.Cum)/1024)
			}
		}
		fmt.Fprintln(w)
	}
}

// trimFuncName shortens a qualified function name to width, keeping the
// most specific suffix.
func trimFuncName(name string, width int) string {
	if len(name) <= width {
		return name
	}
	return "…" + name[len(name)-(width-1):]
}
