package physical

import "samzasql/internal/samza"

// This file is the running side of the program — the message router of
// Figure 4 realised as one block pipeline per input topic, compiled by
// threading a BlockEmit through build. RouteBatch drives one polled batch
// (always from a single topic-partition) through its topic's pipeline —
// decode once per block, each operator's ProcessBlock once per block, the
// outputs flushed in one batched send. A batch of one message is the
// per-tuple case; it is the only way into the operators.

// RouteBatch drives one polled batch through the program. The envelopes
// come from a single topic-partition in offset order (the consumer's poll
// contract).
//
//samzasql:hotpath
func (p *Program) RouteBatch(envs []samza.IncomingMessageEnvelope) error {
	if len(envs) == 0 {
		return nil
	}
	topic := envs[0].Stream
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
			if err := p.routeBlock(in, envs[:n]); err != nil {
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
	return p.routeBlock(in, envs)
}

// routeBlock decodes envs into the program's block arena and runs the
// input's compiled chain over it.
//
//samzasql:hotpath
func (p *Program) routeBlock(in *Input, envs []samza.IncomingMessageEnvelope) error {
	if len(envs) == 0 {
		return nil
	}
	b := &p.blockArena
	b.Reset(envs[0].Stream, envs[0].Partition, len(envs))
	for i := range envs {
		env := &envs[i]
		b.Raw = append(b.Raw, env.Value)
		b.Keys = append(b.Keys, env.Key)
		b.Ts = append(b.Ts, env.Timestamp)
		b.Offsets = append(b.Offsets, env.Offset)
	}
	if err := in.Scan.DecodeBlock(b); err != nil {
		return err
	}
	return in.entry(b)
}
