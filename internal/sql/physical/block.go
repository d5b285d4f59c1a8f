package physical

import (
	"time"

	"samzasql/internal/operators"
	"samzasql/internal/samza"
	"samzasql/internal/trace"
)

// This file is the vectorized side of the program: per-topic block
// pipelines compiled next to the per-tuple router by threading a BlockEmit
// through build. RouteBatch drives one polled batch (always from a single
// topic-partition) through its topic's pipeline — decode once per block,
// each operator's ProcessBlock once per block, the outputs flushed in one
// batched send. Stateful stages (aggregate, sliding window, joins) cluster
// each block by key and batch their state reads (block_stateful.go), so
// every compiled plan's topics run vectorized; the per-tuple fallback only
// covers topics without a compiled entry (the fused fast path handles its
// own batches).

// blockInput is one source topic's vectorized pipeline: the input whose scan
// decodes its blocks and the compiled per-block chain above it.
type blockInput struct {
	in    *Input
	entry operators.BlockEmit
}

// Vectorized reports whether the program compiled a per-block pipeline
// (fused kernel or block pipelines); plans without one process batches
// through the per-tuple router.
func (p *Program) Vectorized() bool { return p.fast != nil || len(p.blockInputs) > 0 }

// RouteBatch drives one polled batch through the program — the vectorized
// counterpart of RouteMessage. The envelopes come from a single
// topic-partition in offset order (the consumer's poll contract). act may
// be nil (bounded execution, tests); sampled messages inside the batch get
// their spans replayed at batch granularity with row counts.
//
//samzasql:hotpath
func (p *Program) RouteBatch(envs []samza.IncomingMessageEnvelope, act *trace.Active, pollNs int64) error {
	if len(envs) == 0 {
		return nil
	}
	topic := envs[0].Stream
	if p.fast != nil {
		if topic != p.fast.topic {
			return nil
		}
		return p.fast.handleBlock(envs, act, pollNs)
	}
	bi := p.blockInputs[topic]
	if bi == nil {
		// Per-tuple fallback: route each message with the trace brackets
		// the scalar container loop would have applied.
		for i := range envs {
			env := &envs[i]
			if env.Trace.Sampled {
				act.StartMessage(env.Trace, pollNs, time.Now().UnixNano())
			}
			if err := p.RouteMessage(env.Stream, env.Value, env.Key, env.Timestamp, env.Partition, env.Offset); err != nil {
				return err
			}
			if env.Trace.Sampled {
				act.FinishMessage(time.Now().UnixNano())
			}
		}
		return nil
	}
	if bi.in.tombstone != nil {
		// A relation changelog: tombstones have no value to decode. Each
		// goes to the join on its own, between the blocks of the rows
		// around it, so a key's puts and deletes apply in offset order.
		for len(envs) > 0 {
			n := 0
			for n < len(envs) && envs[n].Value != nil {
				n++
			}
			if err := p.routeBlock(bi, envs[:n], act, pollNs); err != nil {
				return err
			}
			if n == len(envs) {
				break
			}
			if err := bi.in.tombstone(envs[n].Key); err != nil {
				return err
			}
			envs = envs[n+1:]
		}
		return nil
	}
	return p.routeBlock(bi, envs, act, pollNs)
}

// routeBlock decodes envs into the program's block arena and runs the
// topic's compiled chain over it.
//
//samzasql:hotpath
func (p *Program) routeBlock(bi *blockInput, envs []samza.IncomingMessageEnvelope, act *trace.Active, pollNs int64) error {
	if len(envs) == 0 {
		return nil
	}
	b := &p.blockArena
	b.Reset(envs[0].Stream, envs[0].Partition, len(envs))
	sampled := 0
	for i := range envs {
		env := &envs[i]
		b.Raw = append(b.Raw, env.Value)
		b.Keys = append(b.Keys, env.Key)
		b.Ts = append(b.Ts, env.Timestamp)
		b.Offsets = append(b.Offsets, env.Offset)
		if env.Trace.Sampled {
			sampled++
		}
	}
	var startNs int64
	if sampled > 0 {
		p.btrace.Reset()
		b.Trace = &p.btrace
		startNs = time.Now().UnixNano()
	}
	if err := bi.in.Scan.DecodeBlock(b); err != nil {
		return err
	}
	if err := bi.entry(b); err != nil {
		return err
	}
	if sampled > 0 {
		p.replayBlockTrace(envs, act, pollNs, startNs, time.Now().UnixNano())
	}
	return nil
}

// replayBlockTrace reconstructs per-message trace trees for the sampled
// messages of a completed block: each gets its produce/poll/process spans
// plus the block's batch-level operator spans (carrying the row counts they
// covered), so vectorization changes span granularity but never drops
// sampled messages from the trace stream.
func (p *Program) replayBlockTrace(envs []samza.IncomingMessageEnvelope, act *trace.Active, pollNs, startNs, endNs int64) {
	for i := range envs {
		if !envs[i].Trace.Sampled {
			continue
		}
		act.StartMessage(envs[i].Trace, pollNs, startNs)
		for _, sp := range p.btrace.Spans {
			act.StageRows(sp.Stage, sp.StartNs, sp.EndNs, sp.Rows)
		}
		act.FinishMessage(endNs)
	}
}
