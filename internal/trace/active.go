package trace

// maxDepth bounds the per-task open-span stack. Operator chains are a
// handful of stages deep; frames past the bound are counted but not
// recorded, so pathological nesting degrades coverage instead of memory.
const maxDepth = 32

// frame is one open span on the Active stack.
type frame struct {
	span    uint64
	stage   string
	startNs int64
}

// Active is a task's tracing cursor: the mutable state of the one trace
// (at most) the task is currently inside. It is owned by the task's single
// goroutine and is not safe for concurrent use — which is exactly the
// container's task model, and what lets every method run without atomics.
//
// The zero-ish lifecycle per sampled message:
//
//	StartMessage  — synthesize the produce span from the message's Context,
//	                record the poll span, open the "process" frame
//	Begin/End     — operator stages nest via the call stack
//	Leaf          — point spans for store/changelog operations
//	FinishMessage — close "process"; the trace pends until the next commit
//	StartCommit/FinishCommit — the commit span (spans recorded during it
//	                nest under it) closes the trace
//
// Every method is nil-safe and collapses to a bool check when no trace is
// active, so unsampled messages pay one branch per call site.
type Active struct {
	rec *Recorder

	sampled bool
	traceID uint64
	// rootParent is the parent for the bottom frame: the poll span while
	// processing, the pending process span during commit.
	rootParent uint64
	frames     [maxDepth]frame
	// depth counts open frames and may exceed maxDepth; the excess frames
	// are neither stored nor recorded.
	depth int

	// pendTrace/pendSpan survive FinishMessage: the last sampled message's
	// trace and process span, which the next commit closes.
	pendTrace uint64
	pendSpan  uint64
}

// NewActive builds a cursor recording into rec.
func NewActive(rec *Recorder) *Active {
	return &Active{rec: rec}
}

// Sampled reports whether the task is currently inside a sampled trace.
// This is the guard every hot-path call site branches on.
func (a *Active) Sampled() bool { return a != nil && a.sampled }

// StartMessage opens a trace for a sampled message: it records the produce
// span synthesized from the message's context (zero-duration, stamped at
// attach time — the gap to the poll span is the queue wait), the poll span
// from pollNs (block fetch) to nowNs (delivery), and opens the "process"
// frame covering the task's work on the message.
func (a *Active) StartMessage(mctx Context, pollNs, nowNs int64) {
	if a == nil || !mctx.Sampled {
		return
	}
	a.sampled = true
	a.traceID = mctx.TraceID
	a.rec.Record(Span{
		TraceID: mctx.TraceID, SpanID: mctx.SpanID, ParentID: mctx.ParentID,
		Stage: "produce", StartNs: mctx.StartNs, EndNs: mctx.StartNs,
	})
	pollSpan := NextID()
	a.rec.Record(Span{
		TraceID: mctx.TraceID, SpanID: pollSpan, ParentID: mctx.SpanID,
		Stage: "poll", StartNs: pollNs, EndNs: nowNs,
	})
	a.rootParent = pollSpan
	a.frames[0] = frame{span: NextID(), stage: "process", startNs: nowNs}
	a.depth = 1
}

// Begin opens a nested span; End closes it. Calls must pair, which the
// operator chain's call structure guarantees.
func (a *Active) Begin(stage string, nowNs int64) {
	if a == nil || !a.sampled {
		return
	}
	if a.depth < maxDepth {
		a.frames[a.depth] = frame{span: NextID(), stage: stage, startNs: nowNs}
	}
	a.depth++
}

// End closes the innermost open span and records it.
func (a *Active) End(nowNs int64) {
	if a == nil || !a.sampled || a.depth == 0 {
		return
	}
	a.depth--
	if a.depth >= maxDepth {
		return // overflowed frame: counted open, never stored
	}
	f := &a.frames[a.depth]
	parent := a.rootParent
	if a.depth > 0 {
		parent = a.frames[a.depth-1].span
	}
	a.rec.Record(Span{
		TraceID: a.traceID, SpanID: f.span, ParentID: parent,
		Stage: f.stage, StartNs: f.startNs, EndNs: nowNs,
	})
}

// Leaf records a completed point span (a store get/put, a changelog flush)
// under the innermost open span.
func (a *Active) Leaf(stage string, startNs, durNs int64) {
	if a == nil || !a.sampled {
		return
	}
	a.rec.Record(Span{
		TraceID: a.traceID, SpanID: NextID(), ParentID: a.currentParent(),
		Stage: stage, StartNs: startNs, EndNs: startNs + durNs,
	})
}

// StageRows records a completed batch-granularity stage span, carrying the
// number of rows the stage covered, under the innermost open span. The
// vectorized block path runs each operator once per block and then replays
// the block's stage log through this for every sampled message in the
// block, so sampled messages keep their per-operator spans (with row
// counts) instead of losing them to the batch.
func (a *Active) StageRows(stage string, startNs, endNs, rows int64) {
	if a == nil || !a.sampled {
		return
	}
	a.rec.Record(Span{
		TraceID: a.traceID, SpanID: NextID(), ParentID: a.currentParent(),
		Stage: stage, StartNs: startNs, EndNs: endNs, Rows: rows,
	})
}

// Outgoing derives the context to attach to a message emitted while inside
// a sampled trace, parenting its produce span under the emitting stage.
// Returns the zero Context when no trace is active.
func (a *Active) Outgoing(nowNs int64) Context {
	if a == nil || !a.sampled {
		return Context{}
	}
	return Context{
		TraceID: a.traceID, SpanID: NextID(), ParentID: a.currentParent(),
		Sampled: true, StartNs: nowNs,
	}
}

// currentParent is the span new children attach to: the innermost stored
// frame, or the root parent when none is open.
func (a *Active) currentParent() uint64 {
	d := a.depth
	if d > maxDepth {
		d = maxDepth
	}
	if d > 0 {
		return a.frames[d-1].span
	}
	return a.rootParent
}

// FinishMessage closes the process span (and, defensively, any frames left
// open by an error path) and demotes the trace to pending-commit: no
// further spans record until StartCommit re-activates it.
func (a *Active) FinishMessage(nowNs int64) {
	if a == nil || !a.sampled {
		return
	}
	proc := a.frames[0].span
	for a.depth > 0 {
		a.End(nowNs)
	}
	a.sampled = false
	a.pendTrace = a.traceID
	a.pendSpan = proc
}

// PendingCommit reports whether a finished trace is waiting for its commit
// span. The commit path branches on this the way the message path branches
// on Sampled.
func (a *Active) PendingCommit() bool { return a != nil && a.pendTrace != 0 }

// StartCommit re-activates the pending trace and opens the "commit" frame
// under the last sampled message's process span, so spans recorded during
// the commit nest beneath it.
func (a *Active) StartCommit(nowNs int64) {
	if a == nil || a.pendTrace == 0 {
		return
	}
	a.sampled = true
	a.traceID = a.pendTrace
	a.rootParent = a.pendSpan
	a.frames[0] = frame{span: NextID(), stage: "commit", startNs: nowNs}
	a.depth = 1
}

// FinishCommit closes the commit span and the trace.
func (a *Active) FinishCommit(nowNs int64) {
	if a == nil || !a.sampled {
		return
	}
	for a.depth > 0 {
		a.End(nowNs)
	}
	a.sampled = false
	a.pendTrace, a.pendSpan = 0, 0
}
