package physical

import (
	"fmt"
	"strings"

	"samzasql/internal/avro"
	"samzasql/internal/sql/catalog"
)

// RepartitionSpec describes one re-keying stage the engine must run as a
// separate Samza job before the main query job (§7 future work 1, and §2's
// observation that Samza DAGs form by "connecting multiple Samza jobs via
// intermediate Kafka streams"). The stage reads SourceTopic, walks each
// message's wire bytes once (avro.FieldWalk) for the KeyCol value and the
// byte spans of the Keep columns, and sends a record of just those columns,
// in source order, to TargetTopic keyed by that value, so the broker's key
// partitioner co-locates join keys. The intermediate stream thus carries
// only what its consumer reads: the projection is pushed below the
// exchange, copied rather than decoded and encoded (§7 future work 5).
//
// Repartitioning interleaves each source partition's messages into the new
// partitions: ordering is preserved per source partition but not globally,
// the ordering caveat the paper flags for order-sensitive downstream
// operators.
type RepartitionSpec struct {
	SourceTopic string
	TargetTopic string
	// KeyCol is the column to re-key by.
	KeyCol string
	// Codec is the source messages' codec.
	Codec *avro.Codec
	// Keep marks, index-aligned with Codec's fields, the columns the
	// intermediate record carries. Nil forwards every message whole.
	Keep []bool
}

// repartitionTopicName derives the deterministic intermediate topic name
// from the source, the key and the columns kept (none named: the whole
// message). Determinism lets concurrent queries joining on the same key and
// reading the same columns share one repartitioned stream, the sharing
// benefit §2 attributes to Samza's job-chaining architecture.
func repartitionTopicName(obj *catalog.Object, keyCol string, keep []bool) string {
	name := fmt.Sprintf("%s-repartition-by-%s", obj.Topic, keyCol)
	if keep == nil {
		return name
	}
	var cols []string
	for i, k := range keep {
		if k {
			cols = append(cols, obj.Row.Columns[i].Name)
		}
	}
	return name + "-keeping-" + strings.Join(cols, ".")
}

// planRepartition records the re-keying stage feeding a repartitioned scan
// of obj, whose messages codec decodes, that reads the source columns
// marked in keep (nil: all of them), and returns it.
func (p *Program) planRepartition(obj *catalog.Object, codec *avro.Codec, keyCol string, keep []bool) (*RepartitionSpec, error) {
	if obj.Row.Index(keyCol) < 0 {
		return nil, fmt.Errorf("physical: repartition key %q not in %q", keyCol, obj.Name)
	}
	target := repartitionTopicName(obj, keyCol, keep)
	for _, r := range p.Repartitions {
		if r.TargetTopic == target {
			return r, nil // already planned (shared)
		}
	}
	spec := &RepartitionSpec{
		SourceTopic: obj.Topic,
		TargetTopic: target,
		KeyCol:      keyCol,
		Codec:       codec,
		Keep:        keep,
	}
	p.Repartitions = append(p.Repartitions, spec)
	return spec, nil
}
