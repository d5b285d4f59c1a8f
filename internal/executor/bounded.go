package executor

import (
	"fmt"
	"sort"

	"samzasql/internal/kafka"
	"samzasql/internal/kv"
	"samzasql/internal/metrics"
	"samzasql/internal/operators"
	"samzasql/internal/samza"
	"samzasql/internal/sql/physical"
)

// ExecuteBounded runs a non-streaming query over the retained history of
// its input topics (§3.3: without STREAM, "SamzaSQL will consider the
// stream as a table consisting of the history of the stream up to the point
// of execution"). It evaluates the program locally: bootstrap inputs first,
// then the remaining messages merged in timestamp order, and returns the
// result rows.
func (e *Engine) ExecuteBounded(query string) ([][]any, error) {
	p, err := e.Prepare(query)
	if err != nil {
		return nil, err
	}
	return e.RunBounded(p)
}

// RunBounded executes a prepared statement in table mode.
func (e *Engine) RunBounded(p *Prepared) ([][]any, error) {
	prog := p.Program
	stores := map[string]kv.Store{}
	opCtx := &operators.OpContext{
		Store: func(name string) kv.Store {
			s, ok := stores[name]
			if !ok {
				s = kv.NewStore()
				stores[name] = s
			}
			return s
		},
		Partition: 0,
		Metrics:   metrics.NewRegistry(),
	}
	if err := prog.Router.Open(opCtx); err != nil {
		return nil, err
	}

	// Capture output rows instead of producing to a topic. Grouped
	// unwindowed queries emit partial rows per input tuple under the
	// early-results policy (§3.3); table mode keeps only the final row per
	// group (the partials update monotonically, so last wins).
	var rows [][]any
	grouped := prog.Aggregate() != nil
	lastPerKey := map[string]int{}
	prog.SetBatchSender(func(_ string, msgs []kafka.Message) error {
		for _, m := range msgs {
			row, err := prog.OutputCodec.DecodeRow(m.Value, nil)
			if err != nil {
				return err
			}
			if grouped && len(m.Key) > 0 {
				if idx, ok := lastPerKey[string(m.Key)]; ok {
					rows[idx] = row
					continue
				}
				lastPerKey[string(m.Key)] = len(rows)
			}
			rows = append(rows, row)
		}
		return nil
	})

	// Materialize any repartition stages inline: bounded mode has no
	// long-running upstream jobs, so re-key the retained history directly
	// into the intermediate topics the scans read.
	for _, spec := range prog.Repartitions {
		srcParts, err := e.Broker.Partitions(spec.SourceTopic)
		if err != nil {
			return nil, err
		}
		if err := e.Broker.EnsureTopic(spec.TargetTopic, kafka.TopicConfig{Partitions: srcParts}); err != nil {
			return nil, err
		}
		msgs, err := e.drainTopic(spec.SourceTopic)
		if err != nil {
			return nil, err
		}
		// Skip what an earlier bounded run already re-keyed.
		already := int64(0)
		for part := int32(0); part < srcParts; part++ {
			hwm, err := e.Broker.HighWatermark(kafka.TopicPartition{Topic: spec.TargetTopic, Partition: part})
			if err != nil {
				return nil, err
			}
			already += hwm
		}
		for i, m := range msgs {
			if int64(i) < already {
				continue
			}
			keyVal, err := spec.Codec.ReadField(m.Value, spec.KeyCol)
			if err != nil {
				return nil, err
			}
			if _, err := e.Broker.Produce(spec.TargetTopic, kafka.Message{
				Partition: -1,
				Key:       []byte(fmt.Sprintf("%v", keyVal)),
				Value:     m.Value,
				Timestamp: m.Timestamp,
			}); err != nil {
				return nil, err
			}
		}
	}

	// Feed bootstrap inputs fully first (relation changelogs), then the
	// stream inputs merged by message timestamp so windowed operators see
	// a coherent watermark across partitions.
	var streamMsgs []kafka.Record
	for _, in := range prog.Inputs {
		msgs, err := e.drainTopic(in.Topic)
		if err != nil {
			return nil, err
		}
		if in.Bootstrap {
			if err := routeRuns(prog, msgs); err != nil {
				return nil, err
			}
			continue
		}
		streamMsgs = append(streamMsgs, msgs...)
	}
	sort.SliceStable(streamMsgs, func(i, j int) bool {
		return streamMsgs[i].Timestamp < streamMsgs[j].Timestamp
	})
	if err := routeRuns(prog, streamMsgs); err != nil {
		return nil, err
	}
	// Close the windows still open at end of history.
	if err := prog.FlushAggregate(); err != nil {
		return nil, err
	}
	if p.Bound.Root.Distinct {
		rows = dedupeRows(rows)
	}
	return rows, nil
}

// routeRuns feeds msgs through the program the way a task's polls would
// deliver them: in runs of consecutive records from one topic-partition, at
// most samza.DefaultBatchSize each, each run handed over in place.
func routeRuns(prog *physical.Program, msgs []kafka.Record) error {
	for len(msgs) > 0 {
		n := 1
		for n < len(msgs) && n < samza.DefaultBatchSize && msgs[n].TP() == msgs[0].TP() {
			n++
		}
		if err := prog.RouteBatch(msgs[:n]); err != nil {
			return err
		}
		msgs = msgs[n:]
	}
	return nil
}

func dedupeRows(rows [][]any) [][]any {
	seen := map[string]bool{}
	var out [][]any
	for _, r := range rows {
		k := fmt.Sprintf("%v", r)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

// drainTopic reads every retained message of a topic.
func (e *Engine) drainTopic(topic string) ([]kafka.Record, error) {
	n, err := e.Broker.Partitions(topic)
	if err != nil {
		return nil, err
	}
	var out []kafka.Record
	for part := int32(0); part < n; part++ {
		tp := kafka.TopicPartition{Topic: topic, Partition: part}
		start, err := e.Broker.StartOffset(tp)
		if err != nil {
			return nil, err
		}
		hwm, err := e.Broker.HighWatermark(tp)
		if err != nil {
			return nil, err
		}
		off := start
		for off < hwm {
			msgs, wait, err := e.Broker.Fetch(tp, off, 1024)
			if err != nil {
				return nil, err
			}
			if wait != nil {
				break
			}
			out = append(out, msgs...)
			off = msgs[len(msgs)-1].Offset + 1
		}
	}
	return out, nil
}
