package operators

import (
	"time"

	"samzasql/internal/metrics"
)

// Instrumented wraps an operator with per-operator observability: a
// process-latency histogram ("operator.<name>.process-ns") and an output
// tuple counter ("operator.<name>.out"). Handles bind once at Open from the
// task's registry; until then (or when the context carries no registry) the
// wrapper is a transparent pass-through. The per-block cost is two
// monotonic clock reads plus lock-free atomics — no allocations.
type Instrumented struct {
	// Op is the wrapped operator.
	Op   Operator
	name string
	lat  *metrics.Histogram
	out  *metrics.Counter
	// stage names the per-stage trace span of sampled blocks, precomputed at
	// construction so the sampled path allocates nothing.
	stage string
}

// NewInstrumented wraps op under the given stage name (unique within one
// compiled program; the physical compiler suffixes repeated kinds).
func NewInstrumented(name string, op Operator) *Instrumented {
	return &Instrumented{Op: op, name: name, stage: "operator." + name}
}

// Name returns the stage name.
func (i *Instrumented) Name() string { return i.name }

// Open implements Operator: binds the metric handles, then opens the
// wrapped operator.
func (i *Instrumented) Open(ctx *OpContext) error {
	if ctx.Metrics != nil {
		i.lat = ctx.Metrics.Histogram("operator." + i.name + ".process-ns")
		i.out = ctx.Metrics.Counter("operator." + i.name + ".out")
	}
	return i.Op.Open(ctx)
}

// ProcessBlock implements Operator, timing the wrapped block call — one
// latency observation per block. When the block carries a trace log, the
// stage's span (with its input row count) is appended for replay onto the
// block's sampled messages.
//
//samzasql:hotpath
func (i *Instrumented) ProcessBlock(side int, b *TupleBlock, emit BlockEmit) error {
	if i.lat == nil && b.Trace == nil {
		return i.Op.ProcessBlock(side, b, emit)
	}
	rows := int64(len(b.Sel))
	tr := b.Trace
	start := time.Now()
	err := i.Op.ProcessBlock(side, b, emit)
	d := time.Since(start).Nanoseconds()
	if i.lat != nil {
		i.lat.Observe(d)
	}
	if tr != nil {
		startNs := start.UnixNano()
		tr.Spans = append(tr.Spans, BlockSpan{Stage: i.stage, StartNs: startNs, EndNs: startNs + d, Rows: rows})
	}
	return err
}

// WrapBlockEmit returns a block emit that counts this operator's output
// rows (the emitted block's selected rows) before passing it downstream.
func (i *Instrumented) WrapBlockEmit(downstream BlockEmit) BlockEmit {
	return func(b *TupleBlock) error {
		if i.out != nil {
			i.out.Add(int64(len(b.Sel)))
		}
		return downstream(b)
	}
}
