// Package physical lowers a logical plan to a SamzaSQL program: the scan /
// operator / insert chain (Figure 4), the message router wiring (one block
// pipeline per input topic, see block.go), the input
// stream set with bootstrap flags, and the store declarations the Samza job
// needs. It is the second half of the paper's two-step planning (§4.2):
// the same compilation runs in the shell (to derive the job configuration)
// and inside each SamzaSQL task at initialization (to build operators).
package physical

import (
	"fmt"

	"samzasql/internal/avro"
	"samzasql/internal/operators"
	"samzasql/internal/samza"
	"samzasql/internal/sql/catalog"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/plan"
	"samzasql/internal/sql/types"
	"samzasql/internal/vec"
)

// Input describes one source stream of the program.
type Input struct {
	Topic string
	// Bootstrap marks relation changelogs consumed before stream input.
	Bootstrap bool
	// Scan decodes messages from this topic.
	Scan *operators.ScanOp
	// entry is the compiled chain above the scan: RouteBatch hands it every
	// decoded block of this topic.
	entry operators.BlockEmit
	// tombstone receives the message key of every nil-value message on a
	// bootstrap input — a row deleted from the relation's compacted
	// changelog — in place of the scan, which has nothing to decode.
	tombstone func(key []byte) error
}

// Program is a compiled query ready to run inside a task (or the bounded
// local executor).
type Program struct {
	Inputs      []*Input
	Router      *operators.Router
	OutputTopic string
	OutputCodec *avro.Codec
	OutputRow   *types.RowType
	// Stores lists the task-local stores the operators need.
	Stores []samza.StoreSpec
	// Repartitions lists the re-keying stages the engine must run as
	// upstream jobs before the main job (§7 future work 1).
	Repartitions []*RepartitionSpec
	// Streaming reports whether any scan is unbounded.
	Streaming bool
	// Stages lists the instrumented stage names in compile order, the keys
	// under which the registry holds "operator.<stage>.*" metrics — what
	// EXPLAIN ANALYZE walks to annotate the plan with live counts and
	// latencies.
	Stages []string
	// insert is the sink operator; its sender is bound via SetBatchSender.
	insert *operators.InsertOp
	// aggregate is non-nil when the plan aggregates; the bounded executor
	// uses FlushAggregate at end of input. aggDownstream is the compiled
	// chain above the aggregate (having filter, projection, insert).
	aggregate     *operators.StreamAggregateOp
	aggDownstream operators.BlockEmit
	// stageSeq numbers repeated operator kinds during compilation so every
	// instrumented stage gets a unique metric name.
	stageSeq map[string]int

	// blockArena is the task-owned reusable block RouteBatch drives an
	// input's chain with.
	blockArena operators.TupleBlock
}

// instrument wraps op for per-operator latency/output metrics and registers
// the wrapper with the router (the wrapper forwards Open to op). The first
// stage of a kind is named after the kind; repeats get "#n" suffixes.
func (p *Program) instrument(kind string, op operators.Operator) *operators.Instrumented {
	if p.stageSeq == nil {
		p.stageSeq = map[string]int{}
	}
	n := p.stageSeq[kind]
	p.stageSeq[kind]++
	name := kind
	if n > 0 {
		name = fmt.Sprintf("%s#%d", kind, n)
	}
	inst := operators.NewInstrumented(name, op)
	p.Stages = append(p.Stages, name)
	p.Router.Register(inst)
	return inst
}

// FlushAggregate closes all open windows through the post-aggregate chain.
// No-op for plans without aggregation.
func (p *Program) FlushAggregate() error {
	if p.aggregate == nil {
		return nil
	}
	return p.aggregate.FlushFinal(p.aggDownstream)
}

// SetBatchSender binds the output sink to a message collector.
func (p *Program) SetBatchSender(bs operators.BatchSender) {
	p.insert.SendBatch = bs
}

// Aggregate exposes the aggregate operator (nil when the plan has none).
func (p *Program) Aggregate() *operators.StreamAggregateOp { return p.aggregate }

// Compile lowers the plan. defaultOutput names the output topic for plain
// SELECTs (INSERT INTO plans carry their own target).
func Compile(root plan.Node, defaultOutput string) (*Program, error) {
	prog := &Program{Router: operators.NewRouter()}

	target := defaultOutput
	body := root
	if ins, ok := root.(*plan.Insert); ok {
		target = ins.Target
		body = ins.Input
	}
	if target == "" {
		return nil, fmt.Errorf("physical: no output topic for query")
	}
	outRow := body.Row()
	outCodec, err := codecFor("Output", outRow, true)
	if err != nil {
		return nil, err
	}
	prog.OutputTopic = target
	prog.OutputRow = outRow
	prog.OutputCodec = outCodec
	if prog.insert, err = operators.NewInsertOp(outCodec, vec.KindsOf(outRow), target); err != nil {
		return nil, err
	}
	insInst := prog.instrument("insert", prog.insert)
	// The insert op emits each block it sent, so the counting emit built
	// here gives "operator.insert.out" = messages actually produced.
	sink := prog.blockStage(insInst, 0, func(*operators.TupleBlock) error { return nil })
	if err := prog.build(body, sink); err != nil {
		return nil, err
	}
	// Aggregate outputs partition by group key (tuples carry it); other
	// plans preserve the source partition.
	if prog.aggregate != nil {
		prog.insert.KeyByTupleKey = true
	}
	return prog, nil
}

// blockStage wraps one instrumented operator as a pipeline stage feeding
// downstream on the given input side.
func (p *Program) blockStage(inst *operators.Instrumented, side int, downstream operators.BlockEmit) operators.BlockEmit {
	emitTo := inst.WrapBlockEmit(downstream)
	return func(b *operators.TupleBlock) error {
		return inst.ProcessBlock(side, b, emitTo)
	}
}

// build wires the plan node's operator and recurses to its inputs.
// downstream receives the node's output blocks.
func (p *Program) build(n plan.Node, downstream operators.BlockEmit) error {
	switch t := n.(type) {
	case *plan.Scan:
		return p.buildScan(t, downstream)
	case *plan.Filter:
		op, err := operators.NewFilterOp(t.Cond, vec.KindsOf(t.Input.Row()))
		if err != nil {
			return err
		}
		return p.build(t.Input, p.blockStage(p.instrument("filter", op), 0, downstream))
	case *plan.Project:
		tsIdx := -1
		for i, c := range t.Row().Columns {
			if c.Type == types.Timestamp {
				tsIdx = i
				break
			}
		}
		op, err := operators.NewProjectOp(t.Exprs, tsIdx)
		if err != nil {
			return err
		}
		// SELECT *: every expression is its own input column, in order. The
		// operator then passes blocks through untouched.
		if identity := t.Exprs != nil && len(t.Exprs) == t.Input.Row().Arity(); identity {
			for i, e := range t.Exprs {
				c, ok := e.(*expr.ColRef)
				if !ok || c.Idx != i {
					identity = false
					break
				}
			}
			op.Identity = identity
		}
		return p.build(t.Input, p.blockStage(p.instrument("project", op), 0, downstream))
	case *plan.Aggregate:
		op, err := operators.NewStreamAggregateOp(t.Keys, t.Window, t.Aggs)
		if err != nil {
			return err
		}
		inst := p.instrument("aggregate", op)
		p.aggregate = op
		// Flushes go through the counting emit too, so final-window rows
		// show up in "operator.aggregate.out".
		p.aggDownstream = inst.WrapBlockEmit(downstream)
		p.addStore(operators.AggStoreName)
		return p.build(t.Input, p.blockStage(inst, 0, downstream))
	case *plan.Analytic:
		op, err := operators.NewSlidingWindowOp(t.Calls)
		if err != nil {
			return err
		}
		p.addStore(operators.SlidingStoreName)
		return p.build(t.Input, p.blockStage(p.instrument("sliding-window", op), 0, downstream))
	case *plan.Join:
		return p.buildJoin(t, downstream)
	case *plan.Insert:
		return fmt.Errorf("physical: nested INSERT is not supported")
	default:
		return fmt.Errorf("physical: unsupported plan node %T", n)
	}
}

func (p *Program) buildScan(s *plan.Scan, downstream operators.BlockEmit) error {
	codec, err := catalog.AvroSchemaFor(s.Object)
	if err != nil {
		return err
	}
	c, err := avro.NewCodec(codec)
	if err != nil {
		return err
	}
	tsIdx := -1
	if s.Object.TimestampCol != "" {
		tsIdx = s.Object.Row.Index(s.Object.TimestampCol)
	}
	// A scan marked for repartitioning reads the re-keyed intermediate
	// topic instead of the source; the engine runs the re-keying stage.
	topic := s.Object.Topic
	if s.RepartitionCol != "" {
		var err error
		topic, err = p.planRepartition(s.Object, s.RepartitionCol)
		if err != nil {
			return err
		}
	}
	scan, err := operators.NewScanOp(c, s.Object.Row, tsIdx, topic, s.Required)
	if err != nil {
		return err
	}
	p.Router.Register(scan)
	for _, in := range p.Inputs {
		if in.Topic == topic {
			return fmt.Errorf("physical: topic %q appears twice in one query (self-joins need an intermediate stream)", in.Topic)
		}
	}
	p.Inputs = append(p.Inputs, &Input{Topic: topic, Bootstrap: s.Bootstrap, Scan: scan, entry: downstream})
	if s.Streaming {
		p.Streaming = true
	}
	return nil
}

func (p *Program) buildJoin(j *plan.Join, downstream operators.BlockEmit) error {
	// Classify: a bootstrap scan below either side marks a
	// stream-to-relation join.
	leftBoot := hasBootstrapScan(j.Left)
	rightBoot := hasBootstrapScan(j.Right)

	p.addStore(operators.JoinStoreName)
	switch {
	case leftBoot || rightBoot:
		streamIsLeft := rightBoot
		op, err := operators.NewStreamRelationJoinOp(j.Info, j.Left.Row(), j.Right.Row(), streamIsLeft)
		if err != nil {
			return err
		}
		rel, relKey, relOffset := j.Left, j.Info.LeftKey, 0
		if streamIsLeft {
			rel, relKey, relOffset = j.Right, j.Info.RightKey, j.Left.Row().Arity()
		}
		if t, ok := messageKeyColumn(rel, relKey, relOffset); ok {
			op.SetRelationKeyedBy(t)
		}
		inst := p.instrument("stream-relation-join", op)
		// Stream side feeds LeftSide, relation changelog feeds RightSide.
		streamEmit := p.blockStage(inst, operators.LeftSide, downstream)
		relEmit := p.blockStage(inst, operators.RightSide, downstream)
		leftEmit, rightEmit := relEmit, streamEmit
		if streamIsLeft {
			leftEmit, rightEmit = streamEmit, relEmit
		}
		first := len(p.Inputs)
		if err := p.build(j.Left, leftEmit); err != nil {
			return err
		}
		mid := len(p.Inputs)
		if err := p.build(j.Right, rightEmit); err != nil {
			return err
		}
		// The relation side's changelog inputs hand their tombstones to the
		// join.
		relInputs := p.Inputs[first:mid]
		if streamIsLeft {
			relInputs = p.Inputs[mid:]
		}
		for _, in := range relInputs {
			if in.Bootstrap {
				in.tombstone = op.DeleteRelation
			}
		}
		return nil
	default:
		op, err := operators.NewStreamStreamJoinOp(j.Info, j.Left.Row(), j.Right.Row())
		if err != nil {
			return err
		}
		inst := p.instrument("stream-stream-join", op)
		if err := p.build(j.Left, p.blockStage(inst, operators.LeftSide, downstream)); err != nil {
			return err
		}
		return p.build(j.Right, p.blockStage(inst, operators.RightSide, downstream))
	}
}

// messageKeyColumn reports whether the relation's changelog messages are
// keyed by its join column, and that column's type: the join key must be a
// bare column of a relation scan (reached through filters only, which keep
// column positions) that the catalog names as the table's partition key.
// offset is where the relation's columns start in the combined row key is
// bound over.
func messageKeyColumn(rel plan.Node, key expr.Expr, offset int) (types.Type, bool) {
	col, ok := key.(*expr.ColRef)
	if !ok {
		return types.Unknown, false
	}
	for {
		f, ok := rel.(*plan.Filter)
		if !ok {
			break
		}
		rel = f.Input
	}
	scan, ok := rel.(*plan.Scan)
	if !ok || scan.Object.PartitionKeyCol == "" {
		return types.Unknown, false
	}
	idx := col.Idx - offset
	if idx < 0 || idx != scan.Object.Row.Index(scan.Object.PartitionKeyCol) {
		return types.Unknown, false
	}
	return scan.Object.Row.Columns[idx].Type, true
}

func hasBootstrapScan(n plan.Node) bool {
	if s, ok := n.(*plan.Scan); ok {
		return s.Bootstrap
	}
	for _, c := range n.Inputs() {
		if hasBootstrapScan(c) {
			return true
		}
	}
	return false
}

func (p *Program) addStore(name string) {
	for _, s := range p.Stores {
		if s.Name == name {
			return
		}
	}
	p.Stores = append(p.Stores, samza.StoreSpec{Name: name, Changelog: true})
}

// codecFor builds an Avro codec for a row type. nullable makes every field
// optional (aggregate outputs can be NULL).
func codecFor(name string, row *types.RowType, nullable bool) (*avro.Codec, error) {
	fields := make([]avro.Field, 0, row.Arity())
	for _, col := range row.Columns {
		var fs *avro.Schema
		switch col.Type {
		case types.Bigint, types.Timestamp, types.Interval:
			fs = avro.Long()
		case types.Double:
			fs = avro.Double()
		case types.Varchar:
			fs = avro.String()
		case types.Boolean:
			fs = avro.Boolean()
		case types.Null, types.AnyType:
			fs = avro.String().AsNullable()
		default:
			return nil, fmt.Errorf("physical: unmappable output type %s for column %q", col.Type, col.Name)
		}
		if nullable && !fs.Nullable {
			fs = fs.AsNullable()
		}
		fields = append(fields, avro.F(col.Name, fs))
	}
	return avro.NewCodec(avro.Record(name, fields...))
}
