package udf

import (
	"fmt"
	"testing"

	"samzasql/internal/sql/types"
)

// Registration behavior with end-to-end query execution is covered in
// internal/executor's UDF tests; these exercise the registry contract
// directly using Reset (test-only).

func validScalar(name string) *Scalar {
	return &Scalar{
		Name: name, MinArgs: 1, MaxArgs: 1,
		ResultType: func(args []types.Type) (types.Type, error) { return args[0], nil },
		Eval:       func(args []any) (any, error) { return args[0], nil },
	}
}

type noopState struct{ n int64 }

func (s *noopState) Add(any) error    { s.n++; return nil }
func (s *noopState) Remove(any) error { s.n--; return nil }
func (s *noopState) Invertible() bool { return true }
func (s *noopState) Value() any       { return s.n }
func (s *noopState) Snapshot() []any  { return []any{s.n} }
func (s *noopState) Restore(r []any) error {
	if len(r) != 1 {
		return fmt.Errorf("bad snapshot")
	}
	s.n, _ = r[0].(int64)
	return nil
}

func validAggregate(name string) *Aggregate {
	return &Aggregate{
		Name:       name,
		ResultType: func(arg types.Type) (types.Type, error) { return types.Bigint, nil },
		New:        func() AggregateState { return &noopState{} },
	}
}

func TestRegisterAndLookup(t *testing.T) {
	Reset()
	defer Reset()
	if err := RegisterScalar(validScalar("F1")); err != nil {
		t.Fatal(err)
	}
	if err := RegisterAggregate(validAggregate("A1")); err != nil {
		t.Fatal(err)
	}
	if _, ok := LookupScalar("F1"); !ok {
		t.Fatal("scalar not found")
	}
	if _, ok := LookupAggregate("A1"); !ok {
		t.Fatal("aggregate not found")
	}
	if _, ok := LookupScalar("A1"); ok {
		t.Fatal("aggregate resolved as scalar")
	}
	if _, ok := LookupAggregate("F1"); ok {
		t.Fatal("scalar resolved as aggregate")
	}
}

func TestRegisterValidation(t *testing.T) {
	Reset()
	defer Reset()
	bad := []*Scalar{
		{},
		{Name: "X"},
		{Name: "X", ResultType: func([]types.Type) (types.Type, error) { return types.Bigint, nil }},
	}
	for i, s := range bad {
		if err := RegisterScalar(s); err == nil {
			t.Errorf("scalar case %d accepted", i)
		}
	}
	badAgg := []*Aggregate{
		{},
		{Name: "Y"},
		{Name: "Y", ResultType: func(types.Type) (types.Type, error) { return types.Bigint, nil }},
	}
	for i, a := range badAgg {
		if err := RegisterAggregate(a); err == nil {
			t.Errorf("aggregate case %d accepted", i)
		}
	}
}

func TestDuplicateRejected(t *testing.T) {
	Reset()
	defer Reset()
	if err := RegisterScalar(validScalar("DUP")); err != nil {
		t.Fatal(err)
	}
	if err := RegisterScalar(validScalar("DUP")); err == nil {
		t.Fatal("duplicate scalar accepted")
	}
	if err := RegisterAggregate(validAggregate("DUPA")); err != nil {
		t.Fatal(err)
	}
	if err := RegisterAggregate(validAggregate("DUPA")); err == nil {
		t.Fatal("duplicate aggregate accepted")
	}
}

func TestAggregateStateContract(t *testing.T) {
	Reset()
	defer Reset()
	if err := RegisterAggregate(validAggregate("N")); err != nil {
		t.Fatal(err)
	}
	def, _ := LookupAggregate("N")
	s := def.New()
	for i := 0; i < 5; i++ {
		if err := s.Add(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Value().(int64) != 5 {
		t.Fatalf("value %v", s.Value())
	}
	// Snapshot / restore round trip.
	s2 := def.New()
	if err := s2.Restore(s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if s2.Value().(int64) != 5 {
		t.Fatalf("restored value %v", s2.Value())
	}
}

// Reset removes all registrations.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	scalars = map[string]*Scalar{}
	aggregates = map[string]*Aggregate{}
}
