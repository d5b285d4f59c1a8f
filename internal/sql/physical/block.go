package physical

import (
	"time"

	"samzasql/internal/samza"
	"samzasql/internal/trace"
)

// This file is the running side of the program — the message router of
// Figure 4 realised as one block pipeline per input topic, compiled by
// threading a BlockEmit through build. RouteBatch drives one polled batch
// (always from a single topic-partition) through its topic's pipeline —
// decode once per block, each operator's ProcessBlock once per block, the
// outputs flushed in one batched send. A batch of one message is the
// per-tuple case; it is the only way into the operators.

// RouteBatch drives one polled batch through the program. The envelopes
// come from a single topic-partition in offset order (the consumer's poll
// contract). act may be nil (bounded execution, tests); sampled messages
// inside the batch get their spans replayed at batch granularity with row
// counts.
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
	var in *Input
	for _, candidate := range p.Inputs {
		if candidate.Topic == topic {
			in = candidate
			break
		}
	}
	if in == nil {
		return nil // not an input of this query
	}
	if in.tombstone != nil {
		// A relation changelog: tombstones have no value to decode. Each
		// goes to the join on its own, between the blocks of the rows
		// around it, so a key's puts and deletes apply in offset order.
		for len(envs) > 0 {
			n := 0
			for n < len(envs) && envs[n].Value != nil {
				n++
			}
			if err := p.routeBlock(in, envs[:n], act, pollNs); err != nil {
				return err
			}
			if n == len(envs) {
				break
			}
			if err := in.tombstone(envs[n].Key); err != nil {
				return err
			}
			envs = envs[n+1:]
		}
		return nil
	}
	return p.routeBlock(in, envs, act, pollNs)
}

// routeBlock decodes envs into the program's block arena and runs the
// input's compiled chain over it.
//
//samzasql:hotpath
func (p *Program) routeBlock(in *Input, envs []samza.IncomingMessageEnvelope, act *trace.Active, pollNs int64) error {
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
	if err := in.Scan.DecodeBlock(b); err != nil {
		return err
	}
	if err := in.entry(b); err != nil {
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
// covered), so block execution sets span granularity but never drops
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
