// Package catalog holds the metadata the query planner needs: which names
// are streams, tables or views, their row types, their backing Kafka topics
// and Avro schemas, and which column carries the event timestamp. SamzaSQL
// assembles this from Calcite-style JSON model files plus the schema
// registry (§3.2, §4.1); this package supports both sources.
package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"samzasql/internal/avro"
	"samzasql/internal/sql/ast"
	"samzasql/internal/sql/types"
)

// ObjectKind distinguishes streams, tables and views.
type ObjectKind int

// Object kinds.
const (
	// Stream is an unbounded partitioned sequence of tuples (§3.1).
	Stream ObjectKind = iota
	// Table is a relation, reachable as a changelog stream (§3.1, §4.4).
	Table
	// View is a named query (§3.5).
	View
)

func (k ObjectKind) String() string {
	switch k {
	case Stream:
		return "stream"
	case Table:
		return "table"
	default:
		return "view"
	}
}

// Object is one catalog entry.
type Object struct {
	Kind ObjectKind
	Name string
	// Row is the object's schema. For views it is derived at validation.
	Row *types.RowType
	// Topic is the backing Kafka topic: the stream's topic, or the table's
	// changelog topic.
	Topic string
	// TimestampCol names the event-time column ("rowtime" by convention);
	// required on streams for window queries (§3).
	TimestampCol string
	// PartitionKeyCol names the column the publisher keys messages by
	// (§3.1: "How a stream is partitioned is defined by the publisher at
	// publishing time"). Empty means unknown; the planner then assumes
	// joins are co-partitioned. When set, joins on a different column
	// trigger automatic repartitioning (§7 future work 1).
	PartitionKeyCol string
	// Def is the view definition for Kind == View.
	Def *ast.SelectStmt
}

// ErrNotFound is returned for unknown object names.
var ErrNotFound = errors.New("catalog: object not found")

// Catalog maps names to objects. Lookup is case-insensitive with
// case-sensitive priority, like SQL identifiers.
type Catalog struct {
	mu      sync.RWMutex
	objects map[string]*Object
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{objects: map[string]*Object{}}
}

// Define adds or replaces an object.
func (c *Catalog) Define(o *Object) error {
	if o.Name == "" {
		return errors.New("catalog: object needs a name")
	}
	if o.Kind != View && o.Row == nil {
		return fmt.Errorf("catalog: %s %q needs a row type", o.Kind, o.Name)
	}
	if o.Kind == Stream && o.Row != nil && o.TimestampCol != "" {
		if o.Row.Index(o.TimestampCol) < 0 {
			return fmt.Errorf("catalog: stream %q timestamp column %q not in schema",
				o.Name, o.TimestampCol)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.objects[o.Name] = o
	return nil
}

// Resolve finds an object by name (case-insensitive fallback).
func (c *Catalog) Resolve(name string) (*Object, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if o, ok := c.objects[name]; ok {
		return o, nil
	}
	var match *Object
	for n, o := range c.objects {
		if equalFold(n, name) {
			if match != nil {
				return nil, fmt.Errorf("catalog: name %q is ambiguous", name)
			}
			match = o
		}
	}
	if match == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return match, nil
}

// Names returns all object names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.objects))
	for n := range c.objects {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// --- JSON model files (Calcite-style) ---

// modelFile is the JSON document shape.
type modelFile struct {
	Schemas []modelObject `json:"schemas"`
}

type modelObject struct {
	Name         string        `json:"name"`
	Kind         string        `json:"kind"` // "stream" or "table"
	Topic        string        `json:"topic"`
	Timestamp    string        `json:"timestamp,omitempty"`
	PartitionKey string        `json:"partitionKey,omitempty"`
	Columns      []modelColumn `json:"columns"`
}

type modelColumn struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// LoadModel parses a JSON model document into the catalog.
func (c *Catalog) LoadModel(doc []byte) error {
	var m modelFile
	if err := json.Unmarshal(doc, &m); err != nil {
		return fmt.Errorf("catalog: bad model file: %w", err)
	}
	for _, obj := range m.Schemas {
		var kind ObjectKind
		switch obj.Kind {
		case "stream":
			kind = Stream
		case "table":
			kind = Table
		default:
			return fmt.Errorf("catalog: object %q has kind %q (want stream or table)", obj.Name, obj.Kind)
		}
		cols := make([]types.Column, 0, len(obj.Columns))
		for _, mc := range obj.Columns {
			t, err := types.ByName(mc.Type)
			if err != nil {
				return fmt.Errorf("catalog: object %q column %q: %w", obj.Name, mc.Name, err)
			}
			cols = append(cols, types.Column{Name: mc.Name, Type: t})
		}
		topic := obj.Topic
		if topic == "" {
			topic = obj.Name
		}
		o := &Object{
			Kind:            kind,
			Name:            obj.Name,
			Row:             types.NewRowType(cols...),
			Topic:           topic,
			TimestampCol:    obj.Timestamp,
			PartitionKeyCol: obj.PartitionKey,
		}
		if err := c.Define(o); err != nil {
			return err
		}
	}
	return nil
}

// --- Avro schema bridging ---

// AvroSchemaFor derives the Avro record schema used on the wire for an
// object's rows. All columns encode as nullable-free primitives except
// explicitly nullable SQL types (we map every VARCHAR and numeric directly;
// NULL handling on the wire would use nullable unions).
func AvroSchemaFor(o *Object) (*avro.Schema, error) {
	if o.Row == nil {
		return nil, fmt.Errorf("catalog: %q has no row type", o.Name)
	}
	fields := make([]avro.Field, 0, o.Row.Arity())
	for _, col := range o.Row.Columns {
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
		case types.AnyType:
			fs = avro.Bytes()
		default:
			return nil, fmt.Errorf("catalog: column %q has unmappable type %s", col.Name, col.Type)
		}
		fields = append(fields, avro.F(col.Name, fs))
	}
	return avro.Record(o.Name, fields...), nil
}
