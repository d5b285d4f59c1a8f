package analysis

import (
	"go/format"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// An analyzer earns its place in Suite() by catching a realistic bug in the
// code it guards, not only the shapes of its purpose-built fixture. Each
// seeded regression below copies one real runtime package, plants a bug a
// plausible refactor could introduce, and requires the analyzer to report
// it without a suppression; the unmodified package must be clean. A seed
// names the text it replaces, so when the real code moves the seed stops
// matching and the test fails loudly instead of proving nothing.
//
// An analyzer that no realistic seed can trip, or whose live findings are
// all suppressions, is a candidate for deletion.

// seedEdit replaces the lines of old, which must occur exactly once in file,
// with new. Lines are compared with surrounding whitespace trimmed, and the
// edited file is gofmt-ed, so seeds are written without indentation.
type seedEdit struct {
	file     string
	old, new string
}

type seededRegression struct {
	name     string
	analyzer *Analyzer
	// pkg is the module-relative directory of the real package.
	pkg   string
	edits []seedEdit
	// want matches the message of the unsuppressed finding the seed causes.
	want string
}

var seededRegressions = []seededRegression{
	{
		name:     "window-fold-boxes-its-argument",
		analyzer: HotpathAlloc,
		pkg:      "internal/operators",
		// The fold goes back through the boxed Accumulator.Add that the
		// typed AddInt64 entry point replaced: one allocation per row.
		edits: []seedEdit{{file: "sliding.go",
			old: `// 4. Fold in the current tuple.
if err := arg.addTo(ws.acc); err != nil {`,
			new: `// 4. Fold in the current tuple.
if err := ws.acc.Add(arg.i); err != nil {`,
		}},
		want: `passing int64 as interface argument 0 boxes it`,
	},
	{
		name:     "poll-loop-looks-up-its-counter",
		analyzer: MetricsBinding,
		pkg:      "internal/samza",
		edits: []seedEdit{{file: "container.go",
			old: `c.processed.Add(int64(len(msgs)))`,
			new: `c.Metrics.Counter("messages-processed").Add(int64(len(msgs)))`,
		}},
		want: `registry lookup Counter\(\.\.\.\) inside a per-message pollTask path`,
	},
	{
		name:     "partition-signals-subscribers-under-its-lock",
		analyzer: LockDiscipline,
		pkg:      "internal/kafka",
		// append wakes consumers with a blocking send before unlocking: a
		// subscriber that is itself waiting on the partition deadlocks it.
		edits: []seedEdit{{file: "partition.go",
			old: `waiters, subs := p.endAppendLocked()
p.mu.Unlock()
wake(waiters, subs)
return offset`,
			new: `waiters, subs := p.endAppendLocked()
for _, s := range subs {
s <- struct{}{}
}
p.mu.Unlock()
wake(waiters, nil)
return offset`,
		}},
		want: `channel send while p\.mu is held`,
	},
	{
		name:     "append-batch-early-exit-keeps-the-lock",
		analyzer: LockDiscipline,
		pkg:      "internal/kafka",
		edits: []seedEdit{{file: "partition.go",
			old: `if last < 0 {
p.mu.Unlock()
return
}`,
			new: `if last < 0 {
return
}`,
		}},
		want: `returns while p\.mu is locked with no defer p\.mu\.Unlock\(\)`,
	},
	{
		name:     "checkpoint-write-error-dropped",
		analyzer: ErrDrop,
		pkg:      "internal/samza",
		// A failed checkpoint write would go unnoticed and the next restart
		// would replay from an older position than the task believes.
		edits: []seedEdit{{file: "container.go",
			old: `if err := c.cpm.Write(cp); err != nil {
return fmt.Errorf("samza: %s checkpoint write: %w", ti.name, err)
}`,
			new: `c.cpm.Write(cp)`,
		}},
		want: `error result of Write\(\.\.\.\) is discarded`,
	},
	{
		name:     "reporter-started-without-its-join",
		analyzer: GoroutineSupervision,
		pkg:      "internal/samza",
		edits: []seedEdit{{file: "container.go",
			old: `go func() {
defer repWG.Done()
pub.Run(repCtx, rep.interval, rep.collect)
}()`,
			new: `go pub.Run(repCtx, rep.interval, rep.collect)`,
		}},
		want: `unsupervised goroutine`,
	},
	{
		name:     "message-trace-started-unsampled",
		analyzer: TraceGuard,
		pkg:      "internal/sql/physical",
		// The block loop opens every message's trace as it gathers the
		// block, instead of replaying the sampled ones after it: a call and
		// a clock read per unsampled row.
		edits: []seedEdit{{file: "block.go",
			old: `if env.Trace.Sampled {
sampled++
}`,
			new: `act.StartMessage(env.Trace, pollNs, time.Now().UnixNano())
if env.Trace.Sampled {
sampled++
}`,
		}},
		want: `unguarded trace\.StartMessage call in //samzasql:hotpath function routeBlock`,
	},
	{
		name:     "runtime-metrics-read-per-batch",
		analyzer: ProfileGuard,
		pkg:      "internal/samza",
		// The runtime/metrics collector, refreshed once per metrics publish,
		// moves onto the container and into the poll loop.
		edits: []seedEdit{
			{file: "container.go",
				old: `cpm     *CheckpointManager`,
				new: `cpm     *CheckpointManager
rtc *profile.Collector`,
			},
			{file: "container.go",
				old: `rtc := profile.NewCollector(c.Metrics)`,
				new: `rtc := profile.NewCollector(c.Metrics)
c.rtc = rtc`,
			},
			{file: "container.go",
				old: `c.processed.Add(int64(len(msgs)))`,
				new: `c.processed.Add(int64(len(msgs)))
c.rtc.Refresh()`,
			},
		},
		want: `unguarded profile\.Refresh call in //samzasql:hotpath function pollTask`,
	},
	{
		name:     "cancellable-poll-leaks-its-fetcher",
		analyzer: ChanLeak,
		pkg:      "internal/kafka",
		// Poll runs the fetch on a helper goroutine so it can give up on
		// cancellation; the ctx.Done branch returns without receiving, and
		// the helper blocks forever on its send.
		edits: []seedEdit{{file: "consumer.go",
			old: `msgs, assigned, err := c.pollOnce(max)`,
			new: `type polled struct {
msgs     []Record
assigned bool
err      error
}
done := make(chan polled)
go func() {
m, a, e := c.pollOnce(max)
done <- polled{m, a, e}
}()
var r polled
select {
case r = <-done:
case <-ctx.Done():
return nil, ctx.Err()
}
msgs, assigned, err := r.msgs, r.assigned, r.err`,
		}},
		want: `channel may leak its sender goroutine`,
	},
	{
		name:     "retention-asks-consumers-under-the-partition-lock",
		analyzer: LockOrder,
		pkg:      "internal/kafka",
		// Retention that spares segments a registered reader has not
		// consumed asks each reader for its position while append holds the
		// partition lock; a poll holds the consumer lock while it reads the
		// partition. Two goroutines can then wait on each other.
		edits: []seedEdit{
			{file: "partition.go",
				old: `compacted       bool
}`,
				new: `compacted       bool
readers []*Consumer
}`,
			},
			{file: "partition.go",
				old: `if p.retentionBytes <= 0 || p.compacted {
return
}`,
				new: `if p.retentionBytes <= 0 || p.compacted {
return
}
for _, r := range p.readers {
if pos, ok := r.Position(TopicPartition{Topic: p.topic, Partition: p.id}); ok && pos < p.hwm.Load() {
return
}
}`,
			},
		},
		want: `lock order cycle \(potential deadlock\): .*\(\*kafka\.(Consumer|partition)\)\.mu.* \(\*kafka\.(Consumer|partition)\)\.mu`,
	},
}

// TestEveryAnalyzerHasASeededRegression keeps the table complete: a new
// analyzer comes with a realistic bug it catches.
func TestEveryAnalyzerHasASeededRegression(t *testing.T) {
	seeded := map[string]bool{}
	for _, s := range seededRegressions {
		seeded[s.analyzer.Name] = true
	}
	for _, a := range Suite() {
		if !seeded[a.Name] {
			t.Errorf("analyzer %s has no seeded regression", a.Name)
		}
	}
}

func TestSeededRegressions(t *testing.T) {
	for _, s := range seededRegressions {
		t.Run(s.name, func(t *testing.T) {
			orig := filepath.Join("..", "..", filepath.FromSlash(s.pkg))
			if got := unsuppressedIn(t, orig, s); len(got) > 0 {
				t.Fatalf("unseeded %s is not clean under %s: %v", s.pkg, s.analyzer.Name, got)
			}
			seeded := seedCopy(t, orig, s.edits)
			want := regexp.MustCompile(s.want)
			got := unsuppressedIn(t, seeded, s)
			for _, d := range got {
				if want.MatchString(d.Message) {
					t.Logf("%s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
					return
				}
			}
			t.Errorf("%s missed the seeded regression in %s: want a finding matching %q, got %v",
				s.analyzer.Name, s.pkg, s.want, got)
		})
	}
}

// unsuppressedIn loads the package in dir under s's import path with a fresh
// loader and returns s.analyzer's unsuppressed findings.
func unsuppressedIn(t *testing.T, dir string, s seededRegression) []Diagnostic {
	t.Helper()
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, loader.ModulePath+"/"+s.pkg)
	if err != nil {
		t.Fatal(err)
	}
	return Unsuppressed(Run([]*Package{pkg}, []*Analyzer{s.analyzer}))
}

// seedCopy copies the non-test Go files of the package in dir into a fresh
// temporary directory and applies edits there.
func seedCopy(t *testing.T, dir string, edits []seedEdit) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = string(src)
	}
	for _, e := range edits {
		src, ok := files[e.file]
		if !ok {
			t.Fatalf("seed edits %s, which is not a source file of %s", e.file, dir)
		}
		files[e.file] = replaceLines(t, e.file, src, e.old, e.new)
	}
	out := t.TempDir()
	for name, src := range files {
		formatted, err := format.Source([]byte(src))
		if err != nil {
			t.Fatalf("seeded %s does not parse: %v", name, err)
		}
		if err := os.WriteFile(filepath.Join(out, name), formatted, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// replaceLines replaces the one run of lines in src that equals old line by
// line, ignoring surrounding whitespace, with new.
func replaceLines(t *testing.T, file, src, old, new string) string {
	t.Helper()
	lines := strings.Split(src, "\n")
	oldLines := strings.Split(old, "\n")
	at := -1
	for i := 0; i+len(oldLines) <= len(lines); i++ {
		match := true
		for j, o := range oldLines {
			if strings.TrimSpace(lines[i+j]) != strings.TrimSpace(o) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		if at >= 0 {
			t.Fatalf("seed text occurs more than once in %s:\n%s", file, old)
		}
		at = i
	}
	if at < 0 {
		t.Fatalf("seed text no longer occurs in %s (the real code moved; re-point the seed):\n%s", file, old)
	}
	out := append([]string{}, lines[:at]...)
	out = append(out, strings.Split(new, "\n")...)
	return strings.Join(append(out, lines[at+len(oldLines):]...), "\n")
}
