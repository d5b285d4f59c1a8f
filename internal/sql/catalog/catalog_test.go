package catalog

import (
	"errors"
	"strings"
	"testing"

	"samzasql/internal/avro"
	"samzasql/internal/sql/types"
)

func ordersObject() *Object {
	return &Object{
		Kind: Stream, Name: "Orders", Topic: "orders", TimestampCol: "rowtime",
		Row: types.NewRowType(
			types.Column{Name: "rowtime", Type: types.Timestamp},
			types.Column{Name: "units", Type: types.Bigint},
		),
	}
}

func TestDefineAndResolve(t *testing.T) {
	c := New()
	if err := c.Define(ordersObject()); err != nil {
		t.Fatal(err)
	}
	o, err := c.Resolve("Orders")
	if err != nil || o.Topic != "orders" {
		t.Fatalf("Resolve: %+v %v", o, err)
	}
	// Case-insensitive fallback.
	o, err = c.Resolve("orders")
	if err != nil || o.Name != "Orders" {
		t.Fatalf("case-insensitive Resolve: %+v %v", o, err)
	}
	if _, err := c.Resolve("Nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown: %v", err)
	}
}

func TestDefineValidation(t *testing.T) {
	c := New()
	if err := c.Define(&Object{Kind: Stream, Name: ""}); err == nil {
		t.Fatal("unnamed object accepted")
	}
	if err := c.Define(&Object{Kind: Stream, Name: "S"}); err == nil {
		t.Fatal("stream without row type accepted")
	}
	bad := ordersObject()
	bad.TimestampCol = "missing"
	if err := c.Define(bad); err == nil || !strings.Contains(err.Error(), "timestamp") {
		t.Fatalf("bad timestamp column: %v", err)
	}
}

func TestAmbiguousCaseInsensitive(t *testing.T) {
	c := New()
	a := ordersObject()
	a.Name = "orders"
	b := ordersObject()
	b.Name = "ORDERS"
	if err := c.Define(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Define(b); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve("Orders"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous resolve: %v", err)
	}
	// Exact match still wins.
	if o, err := c.Resolve("orders"); err != nil || o.Name != "orders" {
		t.Fatalf("exact resolve: %+v %v", o, err)
	}
}

func TestLoadModel(t *testing.T) {
	doc := `{
	  "schemas": [
	    {"name": "Orders", "kind": "stream", "topic": "orders",
	     "timestamp": "rowtime",
	     "columns": [
	       {"name": "rowtime", "type": "TIMESTAMP"},
	       {"name": "productId", "type": "BIGINT"},
	       {"name": "units", "type": "BIGINT"}
	     ]},
	    {"name": "Products", "kind": "table",
	     "columns": [
	       {"name": "productId", "type": "BIGINT"},
	       {"name": "name", "type": "VARCHAR"}
	     ]}
	  ]
	}`
	c := New()
	if err := c.LoadModel([]byte(doc)); err != nil {
		t.Fatal(err)
	}
	o, err := c.Resolve("Orders")
	if err != nil || o.Kind != Stream || o.TimestampCol != "rowtime" || o.Row.Arity() != 3 {
		t.Fatalf("Orders: %+v %v", o, err)
	}
	p, err := c.Resolve("Products")
	if err != nil || p.Kind != Table || p.Topic != "Products" {
		t.Fatalf("Products: %+v %v", p, err)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "Orders" {
		t.Fatalf("Names: %v", names)
	}
}

func TestLoadModelErrors(t *testing.T) {
	c := New()
	for _, doc := range []string{
		`not json`,
		`{"schemas":[{"name":"X","kind":"frob","columns":[]}]}`,
		`{"schemas":[{"name":"X","kind":"stream","columns":[{"name":"a","type":"WAT"}]}]}`,
	} {
		if err := c.LoadModel([]byte(doc)); err == nil {
			t.Errorf("LoadModel(%q) succeeded", doc)
		}
	}
}

func TestAvroSchemaBridge(t *testing.T) {
	o := ordersObject()
	s, err := AvroSchemaFor(o)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != avro.KindRecord || len(s.Fields) != 2 {
		t.Fatalf("schema %+v", s)
	}
	if s.Fields[0].Schema.Kind != avro.KindLong || s.Fields[1].Schema.Kind != avro.KindLong {
		t.Fatalf("field kinds %v %v", s.Fields[0].Schema.Kind, s.Fields[1].Schema.Kind)
	}
	// Timestamps flatten to longs on the wire; names survive.
	if s.Fields[0].Name != "rowtime" {
		t.Fatalf("field names %q %q", s.Fields[0].Name, s.Fields[1].Name)
	}
}
