package operators

import (
	"fmt"
	"strings"

	"samzasql/internal/serde"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/udf"
	"samzasql/internal/sql/validate"
	"samzasql/internal/vec"
)

// Accumulator is one aggregate function's running state: the builtins
// (COUNT/SUM/MIN/MAX/AVG/START/END) and user-defined aggregates implement
// it. Remove supports the sliding window's purge phase (Algorithm 1) for
// invertible aggregates; non-invertible ones (MIN/MAX, non-invertible
// UDAFs) are rebuilt by rescanning the retained window.
type Accumulator interface {
	// Add folds one value in; v may be nil (ignored by builtins except
	// COUNT(*), whose caller passes a non-nil marker).
	Add(v any) error
	// Remove unfolds one value (only called when Invertible is true).
	Remove(v any) error
	// AddInt64 and RemoveInt64 are Add and Remove of a non-NULL int64, which
	// the builtins fold without boxing it.
	AddInt64(v int64) error
	RemoveInt64(v int64) error
	// Invertible reports whether Remove fully maintains the aggregate.
	Invertible() bool
	// Value returns the aggregate's current SQL value.
	Value() any
	// WriteValue stores Value() as row r of col.
	WriteValue(col *vec.Vec, r int) error
	// SetWindow supplies window bounds (used by START/END; no-op others).
	SetWindow(start, end int64)
	// AppendState appends the state, as an object-serde row, for
	// changelog-backed persistence.
	AppendState(dst []byte) ([]byte, error)
	// ReadState rebuilds the state from exactly one AppendState row.
	ReadState(src []byte) error
}

// AccumCtorFor resolves fn's accumulator constructor once — builtins
// directly, UDAFs through a single registry lookup — so per-group state
// construction on the hot path stays off the shared registry lock.
func AccumCtorFor(fn string) (func() Accumulator, error) {
	switch fn {
	case "COUNT", "SUM", "MIN", "MAX", "AVG", "START", "END":
		return func() Accumulator { return NewAccum(fn) }, nil
	}
	if def, ok := udf.LookupAggregate(fn); ok {
		return func() Accumulator { return &udafAccum{state: def.New()} }, nil
	}
	return nil, fmt.Errorf("operators: unknown aggregate %q", fn)
}

// AccumCtors resolves every bound aggregate's constructor, index-aligned
// with aggs; pair with CompileAggArgs in operator constructors.
func AccumCtors(aggs []*validate.BoundAgg) ([]func() Accumulator, error) {
	ctors := make([]func() Accumulator, 0, len(aggs))
	for _, ag := range aggs {
		ctor, err := AccumCtorFor(ag.Fn)
		if err != nil {
			return nil, err
		}
		ctors = append(ctors, ctor)
	}
	return ctors, nil
}

// Accum is the builtin accumulator.
type Accum struct {
	Fn      string
	Count   int64 // non-null inputs (or all rows for COUNT(*))
	SumI    int64
	SumF    float64
	IsFloat bool
	// least and greatest are the MIN and MAX inputs seen, tracked for every
	// function but COUNT (they are part of the stored state).
	least, greatest scalar
	// Start/End hold window bounds for the START/END aggregates (§3.6).
	Start int64
	End   int64
}

// NewAccum builds the builtin accumulator for fn.
func NewAccum(fn string) *Accum { return &Accum{Fn: fn} }

// Add implements Accumulator.
func (a *Accum) Add(v any) error {
	switch t := v.(type) {
	case nil:
		return nil
	case int64:
		return a.AddInt64(t)
	}
	a.Count++
	if a.Fn == "COUNT" {
		return nil
	}
	var s scalar
	switch t := v.(type) {
	case float64:
		a.SumF += t
		a.IsFloat = true
		s = scalar{kind: floatVal, f: t}
	case string:
		s = scalar{kind: strVal, s: t}
	case bool:
		// MIN/MAX over non-numerics: no sum.
		s = scalar{kind: boolVal}
		if t {
			s.i = 1
		}
	default:
		return fmt.Errorf("operators: aggregate over %T", v)
	}
	a.fold(s)
	return nil
}

// AddInt64 implements Accumulator.
func (a *Accum) AddInt64(v int64) error {
	a.Count++
	if a.Fn == "COUNT" {
		return nil
	}
	a.SumI += v
	a.fold(scalar{kind: intVal, i: v})
	return nil
}

// fold updates the extremes with one input.
func (a *Accum) fold(s scalar) {
	if a.least.kind == noVal {
		a.least, a.greatest = s, s
		return
	}
	if c, ok := s.compare(a.least); ok && c < 0 {
		a.least = s
	}
	if c, ok := s.compare(a.greatest); ok && c > 0 {
		a.greatest = s
	}
}

// Remove implements Accumulator (invertible aggregates only; the extremes
// go stale and are rebuilt by the caller when it relies on them).
func (a *Accum) Remove(v any) error {
	switch t := v.(type) {
	case nil:
		return nil
	case int64:
		return a.RemoveInt64(t)
	}
	a.Count--
	if f, ok := v.(float64); ok && a.Fn != "COUNT" {
		a.SumF -= f
	}
	return nil
}

// RemoveInt64 implements Accumulator.
func (a *Accum) RemoveInt64(v int64) error {
	a.Count--
	if a.Fn != "COUNT" {
		a.SumI -= v
	}
	return nil
}

// Invertible implements Accumulator.
func (a *Accum) Invertible() bool {
	switch a.Fn {
	case "COUNT", "SUM", "AVG", "START", "END":
		return true
	default:
		return false
	}
}

// SetWindow implements Accumulator.
func (a *Accum) SetWindow(start, end int64) {
	a.Start, a.End = start, end
}

// Value implements Accumulator.
func (a *Accum) Value() any {
	if v, ok := a.int64Value(); ok {
		return v
	}
	switch a.Fn {
	case "SUM":
		if a.Count == 0 {
			return nil
		}
		return a.SumF + float64(a.SumI)
	case "AVG":
		if a.Count == 0 {
			return nil
		}
		return (a.SumF + float64(a.SumI)) / float64(a.Count)
	case "MIN":
		return a.least.value()
	case "MAX":
		return a.greatest.value()
	default:
		return nil
	}
}

// int64Value returns Value() when that is a non-NULL int64.
func (a *Accum) int64Value() (int64, bool) {
	switch a.Fn {
	case "COUNT":
		return a.Count, true
	case "SUM":
		return a.SumI, a.Count != 0 && !a.IsFloat
	case "MIN":
		return a.least.i, a.least.kind == intVal
	case "MAX":
		return a.greatest.i, a.greatest.kind == intVal
	case "START":
		return a.Start, true
	case "END":
		return a.End, true
	}
	return 0, false
}

// WriteValue implements Accumulator; an int64 result goes into an Int64
// column unboxed.
func (a *Accum) WriteValue(col *vec.Vec, r int) error {
	if v, ok := a.int64Value(); ok && col.Kind == vec.Int64 {
		col.SetInt64(r, v)
		return nil
	}
	return col.Set(r, a.Value())
}

// accumStateFields is the element count of a builtin accumulator's state
// row: Fn, Count, SumI, SumF, IsFloat, the MIN and MAX inputs, Start, End.
const accumStateFields = 9

// AppendState implements Accumulator. The row is the one the object serde
// writes for [Fn, Count, SumI, SumF, IsFloat, min, max, Start, End] (string,
// long, long, double, boolean, two scalars, long, long), written directly.
func (a *Accum) AppendState(dst []byte) ([]byte, error) {
	dst = serde.AppendRowHeader(dst, accumStateFields)
	dst = serde.AppendString(dst, a.Fn)
	dst = serde.AppendLong(dst, a.Count)
	dst = serde.AppendLong(dst, a.SumI)
	dst = serde.AppendDouble(dst, a.SumF)
	dst = serde.AppendBool(dst, a.IsFloat)
	dst = a.least.appendTo(dst)
	dst = a.greatest.appendTo(dst)
	dst = serde.AppendLong(dst, a.Start)
	return serde.AppendLong(dst, a.End), nil
}

// ReadState implements Accumulator. Only the layout AppendState writes is
// accepted, and only for the accumulator's own function: a state row of
// another function, a slot of another class or trailing bytes are errors.
func (a *Accum) ReadState(src []byte) error {
	r := serde.NewReader(src)
	if n := r.RowHeader(); r.Err() == nil && n != accumStateFields {
		return fmt.Errorf("operators: accumulator state has %d fields, want %d", n, accumStateFields)
	}
	if fn := r.Str(); r.Err() == nil && string(fn) != a.Fn {
		return fmt.Errorf("operators: accumulator state is %s's, the plan's call is %s", fn, a.Fn)
	}
	a.Count, a.SumI, a.SumF, a.IsFloat = r.Long(), r.Long(), r.Double(), r.Bool()
	a.least, a.greatest = readScalar(&r), readScalar(&r)
	a.Start, a.End = r.Long(), r.Long()
	if err := r.Done(); err != nil {
		return fmt.Errorf("operators: accumulator state: %w", err)
	}
	return nil
}

// scalar is a MIN/MAX input held unboxed: NULL, an int64, a float64, a
// string or a bool.
type scalar struct {
	kind scalarKind
	i    int64 // intVal; boolVal as 0 or 1
	f    float64
	s    string
}

type scalarKind uint8

const (
	noVal scalarKind = iota
	intVal
	floatVal
	strVal
	boolVal
)

// compare orders s against t exactly as expr.CompareValues orders the boxed
// values; ok is false where CompareValues fails (the values do not compare).
func (s scalar) compare(t scalar) (c int, ok bool) {
	switch {
	case s.kind == intVal && t.kind == intVal, s.kind == boolVal && t.kind == boolVal:
		return cmpOrdered(s.i, t.i), true
	case s.kind == strVal && t.kind == strVal:
		return strings.Compare(s.s, t.s), true
	case s.numeric() && t.numeric():
		return cmpOrdered(s.float(), t.float()), true
	}
	return 0, false
}

func (s scalar) numeric() bool { return s.kind == intVal || s.kind == floatVal }

func (s scalar) float() float64 {
	if s.kind == intVal {
		return float64(s.i)
	}
	return s.f
}

// cmpOrdered is -1, 0 or 1 for a < b, neither, a > b (a NaN compares equal
// to everything, as in expr.CompareValues).
func cmpOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func (s scalar) value() any {
	switch s.kind {
	case intVal:
		return s.i
	case floatVal:
		return s.f
	case strVal:
		return s.s
	case boolVal:
		return s.i != 0
	}
	return nil
}

func (s scalar) appendTo(dst []byte) []byte {
	switch s.kind {
	case intVal:
		return serde.AppendLong(dst, s.i)
	case floatVal:
		return serde.AppendDouble(dst, s.f)
	case strVal:
		return serde.AppendString(dst, s.s)
	case boolVal:
		return serde.AppendBool(dst, s.i != 0)
	}
	return serde.AppendNull(dst)
}

// readScalar reads a null, long, double, string or boolean element.
func readScalar(r *serde.Reader) scalar {
	switch r.Class() {
	case serde.ClassLong:
		return scalar{kind: intVal, i: r.Long()}
	case serde.ClassDouble:
		return scalar{kind: floatVal, f: r.Double()}
	case serde.ClassString:
		return scalar{kind: strVal, s: string(r.Str())}
	case serde.ClassBool:
		if r.Bool() {
			return scalar{kind: boolVal, i: 1}
		}
		return scalar{kind: boolVal}
	}
	r.Null() // a null; any other class fails the read
	return scalar{}
}

// udafAccum adapts a user-defined aggregate to the Accumulator interface;
// its state row is the object-serde encoding of the UDAF's Snapshot.
type udafAccum struct {
	state udf.AggregateState
}

func (u *udafAccum) Add(v any) error           { return u.state.Add(v) }
func (u *udafAccum) Remove(v any) error        { return u.state.Remove(v) }
func (u *udafAccum) AddInt64(v int64) error    { return u.state.Add(v) }
func (u *udafAccum) RemoveInt64(v int64) error { return u.state.Remove(v) }
func (u *udafAccum) Invertible() bool          { return u.state.Invertible() }
func (u *udafAccum) Value() any                { return u.state.Value() }
func (u *udafAccum) SetWindow(_, _ int64)      {}
func (u *udafAccum) WriteValue(col *vec.Vec, r int) error {
	return col.Set(r, u.state.Value())
}

func (u *udafAccum) AppendState(dst []byte) ([]byte, error) {
	return serde.ObjectSerde{}.AppendEncode(dst, u.state.Snapshot())
}

func (u *udafAccum) ReadState(src []byte) error {
	row, err := serde.ObjectSerde{}.Decode(src)
	if err != nil {
		return err
	}
	return u.state.Restore(row.([]any))
}

// AccumSet is the per-group collection of accumulators.
type AccumSet struct {
	specs  []*validate.BoundAgg
	Accums []Accumulator
	// argEvals[i] computes the i-th aggregate's input from a tuple row
	// (nil for COUNT(*), START, END).
	argEvals []expr.Evaluator
}

// CompileAggArgs compiles the argument evaluators for the bound aggregates,
// index-aligned with aggs (nil for COUNT(*), START, END). Evaluators are
// stateless and safe to share across every AccumSet built for the same plan.
func CompileAggArgs(aggs []*validate.BoundAgg) ([]expr.Evaluator, error) {
	evals := make([]expr.Evaluator, 0, len(aggs))
	for _, ag := range aggs {
		if ag.Arg != nil && ag.Fn != "START" && ag.Fn != "END" {
			ev, err := expr.Compile(ag.Arg)
			if err != nil {
				return nil, err
			}
			evals = append(evals, ev)
		} else {
			evals = append(evals, nil)
		}
	}
	return evals, nil
}

// NewAccumSetWith builds fresh accumulators around pre-compiled argument
// evaluators and pre-resolved constructors, keeping the per-group set
// construction the state decode path performs for every store entry free of
// expression recompilation and registry lookups.
func NewAccumSetWith(aggs []*validate.BoundAgg, argEvals []expr.Evaluator, ctors []func() Accumulator) *AccumSet {
	s := &AccumSet{specs: aggs, argEvals: argEvals}
	for _, ctor := range ctors {
		s.Accums = append(s.Accums, ctor())
	}
	return s
}

// Add folds a tuple row into every accumulator.
func (s *AccumSet) Add(row []any) error {
	for i, a := range s.Accums {
		fn := s.specs[i].Fn
		if fn == "START" || fn == "END" {
			continue
		}
		var v any = int64(1) // COUNT(*) marker
		if s.argEvals[i] != nil {
			var err error
			v, err = s.argEvals[i](row)
			if err != nil {
				return err
			}
		}
		if err := a.Add(v); err != nil {
			return err
		}
	}
	return nil
}

// SetWindow fills START/END values.
func (s *AccumSet) SetWindow(start, end int64) {
	for _, a := range s.Accums {
		a.SetWindow(start, end)
	}
}

// Values returns the aggregate output slots.
func (s *AccumSet) Values() []any {
	out := make([]any, len(s.Accums))
	for i, a := range s.Accums {
		out[i] = a.Value()
	}
	return out
}

// AppendState appends the set's state: a row holding each accumulator's
// state row as a nested row.
func (s *AccumSet) AppendState(dst []byte) ([]byte, error) {
	dst = serde.AppendRowHeader(dst, len(s.Accums))
	for _, a := range s.Accums {
		var err error
		if dst, err = a.AppendState(serde.AppendNestedRow(dst)); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// ReadState refills the accumulators from exactly one AppendState row.
func (s *AccumSet) ReadState(src []byte) error {
	r := serde.NewReader(src)
	if n := r.RowHeader(); r.Err() == nil && n != len(s.Accums) {
		return fmt.Errorf("operators: accumulator set state has %d entries, want %d", n, len(s.Accums))
	}
	for _, a := range s.Accums {
		row := r.Row()
		if r.Err() != nil {
			break
		}
		if err := a.ReadState(row); err != nil {
			return err
		}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("operators: accumulator set state: %w", err)
	}
	return nil
}
