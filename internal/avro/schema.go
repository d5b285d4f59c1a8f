// Package avro implements a schema-driven binary record format modeled on
// Apache Avro: declared record schemas, zigzag-varint integer encoding,
// length-prefixed strings, and nullable fields as null-unions. It is the
// primary message format of SamzaSQL-Go, as Avro is for SamzaSQL (§2).
//
// Three access paths matter to the paper's evaluation:
//
//   - Decode: generic record -> map[string]any.
//   - DecodeRow / EncodeRow: record <-> positional []any — the
//     "AvroToArray" / "ArrayToAvro" steps of Figure 4 that the SQL engine's
//     expression layer requires and that cost SamzaSQL 30-40% throughput.
//   - ReadField: extract one field from the wire bytes without materializing
//     the record — the cheap path a hand-written native Samza job uses.
package avro

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Kind enumerates the supported Avro types.
type Kind int

// Supported schema kinds.
const (
	KindNull Kind = iota
	KindBoolean
	KindInt
	KindLong
	KindFloat
	KindDouble
	KindString
	KindBytes
	KindArray
	KindMap
	KindRecord
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBoolean:
		return "boolean"
	case KindInt:
		return "int"
	case KindLong:
		return "long"
	case KindFloat:
		return "float"
	case KindDouble:
		return "double"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindArray:
		return "array"
	case KindMap:
		return "map"
	case KindRecord:
		return "record"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Schema describes one Avro type. Nullable marks the type as a union with
// null (["null", T]), encoded as a one-byte branch index before the value.
type Schema struct {
	Kind     Kind
	Nullable bool
	// Name is set for records.
	Name string
	// Fields is set for records.
	Fields []Field
	// Items is the element schema for arrays, the value schema for maps.
	Items *Schema

	// fieldIndex maps field name to position, built lazily by Build.
	fieldIndex map[string]int
}

// Field is a named member of a record schema.
type Field struct {
	Name   string
	Schema *Schema
}

// Primitive constructors.
func Boolean() *Schema { return &Schema{Kind: KindBoolean} }
func Long() *Schema    { return &Schema{Kind: KindLong} }
func Double() *Schema  { return &Schema{Kind: KindDouble} }
func String() *Schema  { return &Schema{Kind: KindString} }
func Bytes() *Schema   { return &Schema{Kind: KindBytes} }

// Record returns a record schema with the given name and fields.
func Record(name string, fields ...Field) *Schema {
	s := &Schema{Kind: KindRecord, Name: name, Fields: fields}
	s.buildIndex()
	return s
}

// F is a convenience field constructor.
func F(name string, s *Schema) Field { return Field{Name: name, Schema: s} }

// AsNullable returns a copy of s marked nullable.
func (s *Schema) AsNullable() *Schema {
	c := *s
	c.Nullable = true
	return &c
}

func (s *Schema) buildIndex() {
	s.fieldIndex = make(map[string]int, len(s.Fields))
	for i, f := range s.Fields {
		s.fieldIndex[f.Name] = i
	}
}

// FieldIndex returns the position of the named field, or -1.
func (s *Schema) FieldIndex(name string) int {
	if s.fieldIndex == nil {
		s.buildIndex()
	}
	if i, ok := s.fieldIndex[name]; ok {
		return i
	}
	return -1
}

// Validate checks structural well-formedness.
func (s *Schema) Validate() error {
	switch s.Kind {
	case KindRecord:
		if s.Name == "" {
			return errors.New("avro: record schema requires a name")
		}
		seen := map[string]bool{}
		for _, f := range s.Fields {
			if f.Name == "" {
				return fmt.Errorf("avro: record %q has unnamed field", s.Name)
			}
			if seen[f.Name] {
				return fmt.Errorf("avro: record %q has duplicate field %q", s.Name, f.Name)
			}
			seen[f.Name] = true
			if f.Schema == nil {
				return fmt.Errorf("avro: field %q has nil schema", f.Name)
			}
			if err := f.Schema.Validate(); err != nil {
				return err
			}
		}
	case KindArray, KindMap:
		if s.Items == nil {
			return fmt.Errorf("avro: %s schema requires an item type", s.Kind)
		}
		return s.Items.Validate()
	}
	return nil
}

// MarshalJSON renders the schema as Avro-style JSON.
func (s *Schema) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.toJSONValue(false))
}

func (s *Schema) toJSONValue(ignoreNullable bool) any {
	if s.Nullable && !ignoreNullable {
		return []any{"null", s.toJSONValue(true)}
	}
	switch s.Kind {
	case KindRecord:
		fields := make([]any, 0, len(s.Fields))
		for _, f := range s.Fields {
			fields = append(fields, map[string]any{
				"name": f.Name,
				"type": f.Schema.toJSONValue(false),
			})
		}
		return map[string]any{"type": "record", "name": s.Name, "fields": fields}
	case KindArray:
		return map[string]any{"type": "array", "items": s.Items.toJSONValue(false)}
	case KindMap:
		return map[string]any{"type": "map", "values": s.Items.toJSONValue(false)}
	default:
		return s.Kind.String()
	}
}
