// Package udf provides the user-defined function API the paper lists as
// future work (§7, item four: "a concrete API to define user defined
// aggregates even though it is theoretically possible"). Scalar functions
// plug into the expression compiler; aggregate functions plug into both the
// streaming aggregate operator (GROUP BY) and the sliding window operator
// (OVER), including state snapshot/restore so UDAF state participates in
// changelog-backed fault tolerance like the builtins.
package udf

import (
	"fmt"
	"sync"

	"samzasql/internal/sql/types"
)

// Scalar is a user-defined scalar function.
type Scalar struct {
	// Name is the upper-case SQL name.
	Name string
	// MinArgs/MaxArgs bound the argument count (MaxArgs < 0 = variadic).
	MinArgs, MaxArgs int
	// ResultType computes the result type from argument types.
	ResultType func(args []types.Type) (types.Type, error)
	// Eval computes the value. Arguments may be nil (SQL NULL); returning
	// (nil, nil) yields NULL.
	Eval func(args []any) (any, error)
}

// AggregateState is the running state of one user-defined aggregate
// instance over one group or window partition.
type AggregateState interface {
	// Add folds one input value in. v may be nil (SQL NULL).
	Add(v any) error
	// Remove unfolds one value; only called when Invertible reports true
	// (the sliding window operator rebuilds non-invertible aggregates by
	// rescanning the retained window, exactly as it does for MIN/MAX).
	Remove(v any) error
	// Invertible reports whether Remove fully maintains the aggregate.
	Invertible() bool
	// Value returns the aggregate's current SQL value.
	Value() any
	// Snapshot flattens the state to a row of serializable values
	// (int64/float64/string/bool/nil/nested []any) for the changelog.
	Snapshot() []any
	// Restore rebuilds the state from a Snapshot row.
	Restore(row []any) error
}

// Aggregate is a user-defined aggregate function definition.
type Aggregate struct {
	// Name is the upper-case SQL name.
	Name string
	// ResultType computes the result type from the argument type.
	ResultType func(arg types.Type) (types.Type, error)
	// New creates fresh state.
	New func() AggregateState
}

var (
	mu         sync.RWMutex
	scalars    = map[string]*Scalar{}
	aggregates = map[string]*Aggregate{}
)

// RegisterScalar installs a scalar UDF. Names must be unique among UDFs;
// shadowing a builtin is rejected by the validator at bind time.
func RegisterScalar(s *Scalar) error {
	if s.Name == "" || s.ResultType == nil || s.Eval == nil {
		return fmt.Errorf("udf: scalar function needs name, result type and eval")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := scalars[s.Name]; dup {
		return fmt.Errorf("udf: scalar %q already registered", s.Name)
	}
	scalars[s.Name] = s
	return nil
}

// RegisterAggregate installs a UDAF.
func RegisterAggregate(a *Aggregate) error {
	if a.Name == "" || a.ResultType == nil || a.New == nil {
		return fmt.Errorf("udf: aggregate needs name, result type and factory")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := aggregates[a.Name]; dup {
		return fmt.Errorf("udf: aggregate %q already registered", a.Name)
	}
	aggregates[a.Name] = a
	return nil
}

// LookupScalar resolves a scalar UDF by upper-case name.
func LookupScalar(name string) (*Scalar, bool) {
	mu.RLock()
	defer mu.RUnlock()
	s, ok := scalars[name]
	return s, ok
}

// LookupAggregate resolves a UDAF by upper-case name.
func LookupAggregate(name string) (*Aggregate, bool) {
	mu.RLock()
	defer mu.RUnlock()
	a, ok := aggregates[name]
	return a, ok
}
