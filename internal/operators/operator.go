// Package operators implements SamzaSQL's physical operator layer (§4):
// scan (AvroToArray), filter, project, streaming aggregate (HOP/TUMBLE),
// the sliding-window operator of Algorithm 1, stream-to-stream and
// stream-to-relation joins, and stream insert (ArrayToAvro). Every operator
// processes columnar blocks of rows; the message router that flows them
// through the operators inside a Samza task is compiled by sql/physical.
package operators

import (
	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/trace"
)

// OpContext gives operators access to task-local state and metrics.
type OpContext struct {
	// Store resolves a named task-local store.
	Store func(name string) kv.Store
	// Partition is the task's input partition.
	Partition int32
	// Metrics is the container registry.
	Metrics *metrics.Registry
	// Trace is the task's tracing cursor; may be nil (bounded execution,
	// tests). Hot-path uses must branch on Trace.Sampled() — nil-safe —
	// before any other call (enforced by the samzasql-vet trace-guard rule).
	Trace *trace.Active
}

// Opener is a stage with a lifecycle: Open is called once before any block,
// after state restore.
type Opener interface {
	Open(ctx *OpContext) error
}

// Operator is one stage of the router: it handles a whole block per call —
// a block of one row being the per-tuple case of Figure 4 — and emits blocks
// downstream. Side distinguishes join inputs (0 = left/only, 1 = right);
// linear operators ignore it.
type Operator interface {
	Opener
	ProcessBlock(side int, b *TupleBlock, emit BlockEmit) error
}

// BlockEmit passes a block to the next operator stage.
type BlockEmit func(b *TupleBlock) error

// Router is the lifecycle half of the message router of §4.2: the stages of
// one compiled program, opened together. The per-topic entry chains that
// flow blocks through them belong to the program that compiled them.
type Router struct {
	// stages in Open order (sinks first, as the compiler builds them).
	stages []Opener
}

// NewRouter returns an empty router.
func NewRouter() *Router { return &Router{} }

// Register records a stage for lifecycle management.
func (r *Router) Register(op Opener) {
	r.stages = append(r.stages, op)
}

// Open opens every registered stage.
func (r *Router) Open(ctx *OpContext) error {
	for _, op := range r.stages {
		if err := op.Open(ctx); err != nil {
			return err
		}
	}
	return nil
}
