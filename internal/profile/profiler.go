package profile

import (
	"bytes"
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"
)

// Defaults for the continuous capture cadence. The default duty cycle
// (200ms of CPU sampling per second) keeps steady-state overhead in the
// low single digits; Window == Interval is the aggressive always-sampling
// mode the overhead sweep measures.
const (
	// DefaultInterval is the period between capture windows.
	DefaultInterval = time.Second
	// DefaultWindow is the CPU sampling length within each interval.
	DefaultWindow = 200 * time.Millisecond
	// DefaultTopN caps how many functions one batch retains per profile
	// kind, bounding batch size and downstream store cardinality.
	DefaultTopN = 64
)

// Config controls one Profiler.
type Config struct {
	// Interval is the period between capture windows; <= 0 uses
	// DefaultInterval.
	Interval time.Duration
	// Window is the CPU sampling length per capture; <= 0 uses
	// DefaultWindow, and values above Interval clamp to it (100% duty).
	Window time.Duration
	// TopN caps retained functions per kind per batch; <= 0 uses
	// DefaultTopN.
	TopN int
}

// normalize resolves zero fields to defaults and clamps the window.
func (c Config) normalize() Config {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Window > c.Interval {
		c.Window = c.Interval
	}
	if c.TopN <= 0 {
		c.TopN = DefaultTopN
	}
	return c
}

// Batch is one capture window's folded output, ready for publication.
type Batch struct {
	// TimeMillis is the capture end wall-clock time.
	TimeMillis int64 `json:"time-millis"`
	// WindowMillis is the CPU sampling length this batch covers.
	WindowMillis int64 `json:"window-millis"`
	// CPU holds per-function CPU nanoseconds sampled during the window,
	// flat/cum, top-N by flat.
	CPU []FuncStat `json:"cpu,omitempty"`
	// CPUTotal and CPUSamples are the window's whole sampled CPU, every
	// function included, in nanoseconds and in samples.
	CPUTotal   int64 `json:"cpu-total,omitempty"`
	CPUSamples int64 `json:"cpu-samples,omitempty"`
	// HeapDelta holds per-function bytes allocated since the previous
	// capture (alloc_space delta between cumulative snapshots).
	HeapDelta []FuncStat `json:"heap-delta,omitempty"`
	// Goroutines holds per-function current goroutine counts (flat = parked
	// at that leaf, cum = anywhere on the stack). A level, not a delta.
	Goroutines []FuncStat `json:"goroutines,omitempty"`
}

// captureMu serializes CPU captures process-wide: runtime/pprof's
// StartCPUProfile is process-global and errors when a capture is already
// running, so concurrent containers (same process in this simulation) take
// turns instead of failing. Every capture observes the whole process.
var captureMu sync.Mutex

// Profiler periodically captures windowed CPU profiles plus heap-delta and
// goroutine snapshots for one container. It is constructed unconditionally
// cheap: until Capture runs, a Profiler costs nothing, and Enabled() is the
// branch hot-path call sites must sit behind (the profile-guard analyzer
// enforces this for //samzasql:hotpath functions, like trace-guard does for
// sampling).
type Profiler struct {
	cfg     Config
	enabled bool
	// prevHeap is the previous cumulative alloc_space fold, the baseline
	// for the next heap delta. Only the capture loop touches it.
	prevHeap []FuncStat
}

// New builds a profiler. A nil-config (all-zero) profiler uses defaults;
// pass enabled=false to construct an idle profiler that refuses captures.
func New(cfg Config, enabled bool) *Profiler {
	return &Profiler{cfg: cfg.normalize(), enabled: enabled}
}

// Enabled reports whether the profiler captures at all. This is the guard
// branch for any profiler call reachable from a hot path.
func (p *Profiler) Enabled() bool { return p != nil && p.enabled }

// Config returns the normalized capture configuration.
func (p *Profiler) Config() Config { return p.cfg }

// Capture runs one full capture window — CPU sampling for the configured
// window plus heap-delta and goroutine snapshots — and returns the folded
// batch. It blocks for about cfg.Window (less if ctx ends first) and
// serializes with concurrent captures process-wide.
func (p *Profiler) Capture(ctx context.Context) (*Batch, error) {
	if !p.Enabled() {
		return nil, fmt.Errorf("profile: profiler disabled")
	}
	cpu, err := p.captureCPU(ctx, p.cfg.Window)
	if err != nil {
		return nil, err
	}
	heap, err := p.CaptureHeapDelta()
	if err != nil {
		return nil, err
	}
	gor, err := p.CaptureGoroutines()
	if err != nil {
		return nil, err
	}
	return &Batch{
		TimeMillis:   time.Now().UnixMilli(),
		WindowMillis: p.cfg.Window.Milliseconds(),
		CPU:          cpu.funcs,
		CPUTotal:     cpu.total,
		CPUSamples:   cpu.samples,
		HeapDelta:    heap,
		Goroutines:   gor,
	}, nil
}

// cpuWindow is one folded CPU capture: the top-N functions and the whole
// window's sampled nanoseconds and sample count.
type cpuWindow struct {
	funcs          []FuncStat
	total, samples int64
}

// CaptureCPU samples the process's CPU for d and folds the profile into
// top-N per-function flat/cum nanoseconds.
func (p *Profiler) CaptureCPU(ctx context.Context, d time.Duration) ([]FuncStat, error) {
	w, err := p.captureCPU(ctx, d)
	return w.funcs, err
}

func (p *Profiler) captureCPU(ctx context.Context, d time.Duration) (cpuWindow, error) {
	captureMu.Lock()
	defer captureMu.Unlock()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return cpuWindow{}, fmt.Errorf("profile: start cpu: %w", err)
	}
	t := time.NewTimer(d)
	//samzasql:ignore lock-discipline -- captureMu exists to make this blocking sampling window exclusive: StartCPUProfile is process-global, so concurrent captures must wait out the window, not interleave
	select {
	case <-ctx.Done():
		t.Stop()
	case <-t.C:
	}
	pprof.StopCPUProfile()
	prof, err := Parse(buf.Bytes())
	if err != nil {
		return cpuWindow{}, fmt.Errorf("profile: decode cpu: %w", err)
	}
	samples := prof.ValueIndex("samples")
	idx := prof.ValueIndex("cpu")
	if idx < 0 {
		// Fall back to the samples dimension; every CPU profile has one.
		idx = samples
	}
	return cpuWindow{funcs: Truncate(prof.Fold(idx), p.cfg.TopN), total: prof.Sum(idx), samples: prof.Sum(samples)}, nil
}

// CaptureHeapDelta snapshots the cumulative allocation profile and returns
// the per-function alloc_space delta against the previous capture, top-N by
// flat. The first call returns the cumulative-since-start totals.
//
// The runtime publishes allocation samples as of the most recently completed
// garbage collection, so allocations made since then are missing from this
// capture and land in a later one. A caller that needs a window's
// allocations attributed to that window runs runtime.GC before each capture.
func (p *Profiler) CaptureHeapDelta() ([]FuncStat, error) {
	cur, err := lookupFold("allocs", "alloc_space")
	if err != nil {
		return nil, err
	}
	delta := Delta(cur, p.prevHeap)
	p.prevHeap = cur
	return Truncate(delta, p.cfg.TopN), nil
}

// CaptureGoroutines snapshots the goroutine profile: per-function counts of
// live goroutines (flat = parked at that leaf), top-N by flat.
func (p *Profiler) CaptureGoroutines() ([]FuncStat, error) {
	stats, err := lookupFold("goroutine", "goroutine")
	if err != nil {
		return nil, err
	}
	return Truncate(stats, p.cfg.TopN), nil
}

// lookupFold writes one named runtime profile in proto format, decodes it,
// and folds the named value dimension (falling back to dimension 0).
func lookupFold(name, valueType string) ([]FuncStat, error) {
	lp := pprof.Lookup(name)
	if lp == nil {
		return nil, fmt.Errorf("profile: no %q profile", name)
	}
	var buf bytes.Buffer
	if err := lp.WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("profile: write %s: %w", name, err)
	}
	prof, err := Parse(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("profile: decode %s: %w", name, err)
	}
	idx := prof.ValueIndex(valueType)
	if idx < 0 {
		idx = 0
	}
	return prof.Fold(idx), nil
}
