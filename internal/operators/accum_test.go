package operators

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"samzasql/internal/kv"
	"samzasql/internal/serde"
	"samzasql/internal/sql/expr"
	"samzasql/internal/sql/types"
	"samzasql/internal/sql/udf"
	"samzasql/internal/sql/validate"
	"samzasql/internal/vec"
)

// legacyAccum is the builtin accumulator as it was before its state was
// written by hand: MIN and MAX inputs boxed and ordered by
// expr.CompareValues, the state persisted as the ObjectSerde row of
// [Fn, Count, SumI, SumF, IsFloat, Min, Max, Start, End] and restored by
// type assertions that zero a field of the wrong type. FuzzAccumState holds
// Accum's bytes and results to it.
type legacyAccum struct {
	Fn          string
	Count, SumI int64
	SumF        float64
	IsFloat     bool
	Min, Max    any
	Start, End  int64
}

func (a *legacyAccum) add(v any) error {
	if v == nil {
		return nil
	}
	if a.Fn == "COUNT" {
		a.Count++
		return nil
	}
	a.Count++
	switch t := v.(type) {
	case int64:
		a.SumI += t
	case float64:
		a.SumF += t
		a.IsFloat = true
	case bool, string:
	default:
		return fmt.Errorf("operators: aggregate over %T", v)
	}
	if a.Min == nil {
		a.Min, a.Max = v, v
		return nil
	}
	if c, err := expr.CompareValues(v, a.Min); err == nil && c < 0 {
		a.Min = v
	}
	if c, err := expr.CompareValues(v, a.Max); err == nil && c > 0 {
		a.Max = v
	}
	return nil
}

func (a *legacyAccum) remove(v any) {
	if v == nil {
		return
	}
	a.Count--
	if a.Fn == "COUNT" {
		return
	}
	switch t := v.(type) {
	case int64:
		a.SumI -= t
	case float64:
		a.SumF -= t
	}
}

func (a *legacyAccum) value() any {
	switch a.Fn {
	case "COUNT":
		return a.Count
	case "SUM":
		if a.Count == 0 {
			return nil
		}
		if a.IsFloat {
			return a.SumF + float64(a.SumI)
		}
		return a.SumI
	case "AVG":
		if a.Count == 0 {
			return nil
		}
		return (a.SumF + float64(a.SumI)) / float64(a.Count)
	case "MIN":
		return a.Min
	case "MAX":
		return a.Max
	case "START":
		return a.Start
	case "END":
		return a.End
	}
	return nil
}

func (a *legacyAccum) snapshot() []any {
	return []any{a.Fn, a.Count, a.SumI, a.SumF, a.IsFloat, a.Min, a.Max, a.Start, a.End}
}

func (a *legacyAccum) restore(row []any) error {
	if len(row) != 9 {
		return fmt.Errorf("accumulator snapshot has %d fields", len(row))
	}
	fn, ok := row[0].(string)
	if !ok {
		return fmt.Errorf("accumulator snapshot fn is %T", row[0])
	}
	a.Fn = fn
	a.Count, _ = row[1].(int64)
	a.SumI, _ = row[2].(int64)
	a.SumF, _ = row[3].(float64)
	a.IsFloat, _ = row[4].(bool)
	a.Min, a.Max = row[5], row[6]
	a.Start, _ = row[7].(int64)
	a.End, _ = row[8].(int64)
	return nil
}

// legacyState is the state row the legacy accumulator writes.
func legacyState(t testing.TB, a *legacyAccum) []byte {
	t.Helper()
	b, err := serde.ObjectSerde{}.Encode(a.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var accumFns = []string{"COUNT", "SUM", "MIN", "MAX", "AVG", "START", "END"}

// setWindowOp marks an accumulator input that calls SetWindow instead.
type setWindowOp struct{}

// accumInputs are the values FuzzAccumState folds: int64s inside and outside
// the runtime's small-integer boxes and at the extremes, floats with their
// special values, strings, bools, NULL.
var accumInputs = []any{
	int64(0), int64(1), int64(-1), int64(255), int64(256), int64(1 << 40),
	int64(math.MinInt64), int64(math.MaxInt64),
	0.0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 2.5, -1e300,
	"", "a", "zz", true, false, nil, setWindowOp{},
}

// sameValue compares two aggregate values by type and printed form, so NaN
// equals NaN and -0 differs from 0.
func sameValue(a, b any) bool {
	return fmt.Sprintf("%T %v", a, a) == fmt.Sprintf("%T %v", b, b)
}

// FuzzAccumState is a differential test of the builtin accumulator's state
// codec and folds against legacyAccum. For every function and any sequence
// of Add/Remove (boxed, or through AddInt64/RemoveInt64 for int64s) and
// SetWindow calls, Accum must produce the legacy value and the legacy
// state bytes, byte for byte, and read its own bytes back to the same
// accumulator. For arbitrary bytes ReadState must not panic, and whatever it
// accepts, the legacy ObjectSerde decode and restore must accept as the same
// accumulator.
func FuzzAccumState(f *testing.F) {
	for i := range accumFns {
		a := &legacyAccum{Fn: accumFns[i]}
		for _, v := range []any{int64(300), int64(-2), "x", 1.5} {
			if err := a.add(v); err != nil {
				f.Fatal(err)
			}
		}
		a.Start, a.End = 1000, 2000
		state := legacyState(f, a)
		f.Add(uint8(i), []byte{0, 4 << 2, 16<<2 | 1, 2 << 2, 7<<2 | 3, 21 << 2, 10 << 2}, state)
		f.Add(uint8(i), []byte{}, append(state, 0))
	}
	// A SUM state read by every function, a long slot holding a string, a
	// boolean byte that is neither 0 nor 1.
	f.Add(uint8(2), []byte{5 << 2}, legacyState(f, &legacyAccum{Fn: "SUM", Count: 1, SumI: 7, Min: int64(7), Max: int64(7)}))
	f.Add(uint8(1), []byte{}, legacyStateRow(f, []any{"SUM", "x", int64(0), 0.0, false, nil, nil, int64(0), int64(0)}))
	bad := legacyState(f, &legacyAccum{Fn: "SUM"})
	f.Add(uint8(1), []byte{}, bytes.Replace(bad, []byte("boolean\x00"), []byte("boolean\x02"), 1))
	f.Fuzz(func(t *testing.T, fnSel uint8, ops, raw []byte) {
		fn := accumFns[int(fnSel)%len(accumFns)]
		a, legacy := NewAccum(fn), &legacyAccum{Fn: fn}
		for i, op := range ops {
			v := accumInputs[int(op>>2)%len(accumInputs)]
			if _, ok := v.(setWindowOp); ok {
				a.SetWindow(int64(i)*1000-7, math.MinInt64+int64(op))
				legacy.Start, legacy.End = int64(i)*1000-7, math.MinInt64+int64(op)
				continue
			}
			iv, isInt := v.(int64)
			var err error
			switch {
			case op&2 == 0 && op&1 == 1 && isInt:
				err = a.AddInt64(iv)
			case op&2 == 0:
				err = a.Add(v)
			case op&1 == 1 && isInt:
				err = a.RemoveInt64(iv)
			default:
				err = a.Remove(v)
			}
			if op&2 == 0 {
				if lerr := legacy.add(v); (err == nil) != (lerr == nil) {
					t.Fatalf("%s add %v: error %v, legacy %v", fn, v, err, lerr)
				}
			} else {
				legacy.remove(v)
			}
		}
		if math.IsNaN(a.SumF) && math.IsNaN(legacy.SumF) {
			// Which NaN an arithmetic on NaNs and infinities returns depends
			// on the operand order the compiler picks, in either
			// implementation; a NaN sum's payload is not part of the format.
			legacy.SumF = a.SumF
		}
		if got, want := a.Value(), legacy.value(); !sameValue(got, want) {
			t.Fatalf("%s: value %#v, legacy %#v", fn, got, want)
		}
		state, err := a.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := legacyState(t, legacy); !bytes.Equal(state, want) {
			t.Fatalf("%s: state\n%x\nlegacy\n%x", fn, state, want)
		}
		back := NewAccum(fn)
		if err := back.ReadState(state); err != nil {
			t.Fatalf("%s: own state rejected: %v", fn, err)
		}
		if again, _ := back.AppendState(nil); !bytes.Equal(again, state) || !sameValue(back.Value(), a.Value()) {
			t.Fatalf("%s: round trip changed the accumulator", fn)
		}

		read := NewAccum(fn)
		if err := read.ReadState(raw); err != nil {
			return
		}
		row, err := serde.ObjectSerde{}.Decode(raw)
		if err != nil {
			t.Fatalf("%s: ReadState accepted what ObjectSerde rejects (%v): %x", fn, err, raw)
		}
		var l legacyAccum
		if err := l.restore(row.([]any)); err != nil || l.Fn != fn {
			t.Fatalf("%s: ReadState accepted what the legacy restore rejects (%v, fn %q): %x", fn, err, l.Fn, raw)
		}
		if got, _ := read.AppendState(nil); !bytes.Equal(got, legacyState(t, &l)) || !sameValue(read.Value(), l.value()) {
			t.Fatalf("%s: ReadState and the legacy restore disagree on %x", fn, raw)
		}
	})
}

// legacyStateRow is the ObjectSerde encoding of an arbitrary snapshot row.
func legacyStateRow(t testing.TB, row []any) []byte {
	t.Helper()
	b, err := serde.ObjectSerde{}.Encode(row)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSlidingWindowStateDecodeIsStrict stores a window state row the plan's
// accumulator did not write under a partition's key and requires the restore
// at Open to fail, leaving the store as it was. The state row is an empty
// deque's cursors followed by an accumulator state row.
func TestSlidingWindowStateDecodeIsStrict(t *testing.T) {
	sum := []any{"SUM", int64(3), int64(30), 0.0, false, int64(5), int64(15), int64(0), int64(0)}
	withString := append([]any(nil), sum...)
	withString[1] = "3"
	for _, c := range []struct {
		name, fn string
		acc      []byte
		want     string
	}{
		// The parent adopted the stored function: the MAX call went on
		// computing a SUM, emitting 30 plus the new input.
		{"sum-state-under-max", "MAX", legacyStateRow(t, sum), "accumulator state is SUM's, the plan's call is MAX"},
		// The parent's ObjectSerde decode rejected this one as well.
		{"trailing-byte", "SUM", append(legacyStateRow(t, sum), 0), "trailing"},
		// The parent zeroed the count (a type assertion that failed) and
		// carried on with the window's count lost.
		{"string-in-long-slot", "SUM", legacyStateRow(t, withString), "string where long belongs"},
	} {
		t.Run(c.name, func(t *testing.T) {
			store := kv.NewStore()
			op, err := NewSlidingWindowOp([]*validate.BoundAnalytic{slidingSpec(c.fn, 1000, 0, false)})
			if err != nil {
				t.Fatal(err)
			}
			pk := legacyStateRow(t, []any{int64(7)})
			key := appendStateKey(nil, 0, pk)
			state := append(make([]byte, 6), c.acc...) // count, four cursors, no offsets: all 0
			store.Put(key, state)
			err = op.Open(&OpContext{Store: func(string) kv.Store { return store }})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Open error %v, want one naming %q", err, c.want)
			}
			if got, ok := store.Get(key); store.Len() != 1 || !ok || !bytes.Equal(got, state) {
				t.Fatalf("failed restore changed the store: %d keys, state %x", store.Len(), got)
			}
		})
	}
}

// TestAccumSetStateMatchesLegacyRow pins the streaming aggregate's state row
// to the nested ObjectSerde row the parent wrote, [offsets, [accumulator
// rows…]], for builtins and a UDAF.
func TestAccumSetStateMatchesLegacyRow(t *testing.T) {
	registerTestUDAF()
	aggs := boundAggs("COUNT", "SUM", "MAX")
	aggs = append(aggs, &validate.BoundAgg{Fn: "SUMSQ", T: types.Bigint, Arg: aggs[1].Arg})
	evals, err := CompileAggArgs(aggs)
	if err != nil {
		t.Fatal(err)
	}
	ctors, err := AccumCtors(aggs)
	if err != nil {
		t.Fatal(err)
	}
	set := NewAccumSetWith(aggs, evals, ctors)
	var legacy []*legacyAccum
	for _, fn := range []string{"COUNT", "SUM", "MAX"} {
		legacy = append(legacy, &legacyAccum{Fn: fn})
	}
	sq := &sumSquares{}
	for _, u := range []int64{3, 300, -7} {
		if err := set.Add([]any{int64(0), u}); err != nil {
			t.Fatal(err)
		}
		for i, l := range legacy {
			v := any(u)
			if i == 0 {
				v = int64(1)
			}
			if err := l.add(v); err != nil {
				t.Fatal(err)
			}
		}
		if err := sq.Add(u); err != nil {
			t.Fatal(err)
		}
	}
	offsets := appliedOffsets{{"orders:0", 41}, {"orders:3", 7}}
	op := &StreamAggregateOp{store: kv.NewStore(), srcNames: sourceNames{}}
	if err := op.saveSet([]byte("k"), set, offsets); err != nil {
		t.Fatal(err)
	}
	got, _ := op.store.Get([]byte("k"))
	snaps := []any{}
	for _, l := range legacy {
		snaps = append(snaps, l.snapshot())
	}
	snaps = append(snaps, sq.Snapshot())
	want := legacyStateRow(t, []any{[]any{"orders:0", int64(41), "orders:3", int64(7)}, snaps})
	if !bytes.Equal(got, want) {
		t.Fatalf("aggregate state\n%x\nparent's row\n%x", got, want)
	}
	op.aggs, op.argEvals, op.accumCtors = aggs, evals, ctors
	back, backOffsets, err := op.decodeSet(got, true)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(back.Values(), backOffsets) != fmt.Sprint(set.Values(), offsets) {
		t.Fatalf("decoded %v %v, want %v %v", back.Values(), backOffsets, set.Values(), offsets)
	}
}

// sumSquares is a test UDAF: the sum of the squares of its int64 inputs.
type sumSquares struct{ sum int64 }

func (s *sumSquares) Add(v any) error {
	if n, ok := v.(int64); ok {
		s.sum += n * n
	}
	return nil
}

func (s *sumSquares) Remove(v any) error {
	if n, ok := v.(int64); ok {
		s.sum -= n * n
	}
	return nil
}

func (s *sumSquares) Invertible() bool { return true }
func (s *sumSquares) Value() any       { return s.sum }
func (s *sumSquares) Snapshot() []any  { return []any{s.sum} }

func (s *sumSquares) Restore(row []any) error {
	if len(row) != 1 {
		return fmt.Errorf("sumSquares snapshot has %d fields", len(row))
	}
	s.sum, _ = row[0].(int64)
	return nil
}

var registerUDAFOnce sync.Once

// registerTestUDAF installs SUMSQ once per test binary (the registry is
// global).
func registerTestUDAF() {
	registerUDAFOnce.Do(func() {
		err := udf.RegisterAggregate(&udf.Aggregate{
			Name:       "SUMSQ",
			ResultType: func(types.Type) (types.Type, error) { return types.Bigint, nil },
			New:        func() udf.AggregateState { return &sumSquares{} },
		})
		if err != nil {
			panic(err)
		}
	})
}

// TestAccumWriteValueMatchesSet requires the unboxed int64 write of every
// builtin result to leave the column as Set(Value()) leaves it, NULLs
// included.
func TestAccumWriteValueMatchesSet(t *testing.T) {
	for _, fn := range accumFns {
		for _, inputs := range [][]any{nil, {int64(1000)}, {int64(4), 2.5}, {"b", "a"}} {
			a := NewAccum(fn)
			a.SetWindow(10, 20)
			for _, v := range inputs {
				if err := a.Add(v); err != nil {
					t.Fatal(err)
				}
			}
			var got, want vec.Vec
			kind := vec.KindOf(types.Bigint)
			got.Reset(kind, 2, false)
			want.Reset(kind, 2, false)
			got.SetNull(1)
			want.SetNull(1)
			gerr, werr := a.WriteValue(&got, 1), want.Set(1, a.Value())
			if (gerr == nil) != (werr == nil) || !sameValue(got.Value(1), want.Value(1)) {
				t.Fatalf("%s over %v: WriteValue %v (%v), Set %v (%v)", fn, inputs, got.Value(1), gerr, want.Value(1), werr)
			}
		}
	}
}
