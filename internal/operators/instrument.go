package operators

import (
	"time"

	"samzasql/internal/metrics"
)

// Instrumented wraps an operator with per-operator observability: a
// process-latency histogram ("operator.<name>.process-ns") and an output
// tuple counter ("operator.<name>.out"). Handles bind once at Open from the
// task's registry; until then (or when the context carries no registry) the
// wrapper is a transparent pass-through. The per-block cost is four
// monotonic clock reads plus lock-free atomics — no allocations.
//
// The latency is the stage's own time: an operator emits into the next
// stage synchronously, so the time its emits spend downstream is measured
// (WrapBlockEmit) and subtracted. Without that every stage's timer would
// include the whole chain after it, and the first stage would always look
// the slowest.
type Instrumented struct {
	// Op is the wrapped operator.
	Op   Operator
	name string
	lat  *metrics.Histogram
	out  *metrics.Counter
	// downNs is the time the current ProcessBlock call has spent in
	// downstream stages. Each task compiles its own program, so this is
	// owned by one goroutine.
	downNs int64
}

// NewInstrumented wraps op under the given stage name (unique within one
// compiled program; the physical compiler suffixes repeated kinds).
func NewInstrumented(name string, op Operator) *Instrumented {
	return &Instrumented{Op: op, name: name}
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

// ProcessBlock implements Operator, timing the wrapped block call less its
// downstream emits — one latency observation per block.
//
//samzasql:hotpath
func (i *Instrumented) ProcessBlock(side int, b *TupleBlock, emit BlockEmit) error {
	if i.lat == nil {
		return i.Op.ProcessBlock(side, b, emit)
	}
	i.downNs = 0
	start := time.Now()
	err := i.Op.ProcessBlock(side, b, emit)
	i.lat.Observe(time.Since(start).Nanoseconds() - i.downNs)
	return err
}

// WrapBlockEmit returns a block emit that counts this operator's output
// rows (the emitted block's selected rows) and times the downstream call,
// for ProcessBlock to subtract.
func (i *Instrumented) WrapBlockEmit(downstream BlockEmit) BlockEmit {
	return func(b *TupleBlock) error {
		if i.lat == nil {
			return downstream(b)
		}
		i.out.Add(int64(len(b.Sel)))
		start := time.Now()
		err := downstream(b)
		i.downNs += time.Since(start).Nanoseconds()
		return err
	}
}
