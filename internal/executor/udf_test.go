package executor

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"samzasql/internal/sql/types"
	"samzasql/internal/sql/udf"
)

// registerTestUDFs installs the test UDFs once per process (the registry is
// global, like a production deployment's function catalog).
var registerUDFsOnce sync.Once

func registerTestUDFs(t *testing.T) {
	t.Helper()
	registerUDFsOnce.Do(func() {
		// Scalar: DOUBLE_IT(x) = 2x.
		err := udf.RegisterScalar(&udf.Scalar{
			Name: "DOUBLE_IT", MinArgs: 1, MaxArgs: 1,
			ResultType: func(args []types.Type) (types.Type, error) {
				if !args[0].Numeric() && args[0] != types.Null {
					return types.Unknown, fmt.Errorf("DOUBLE_IT needs a number")
				}
				return args[0], nil
			},
			Eval: func(args []any) (any, error) {
				switch v := args[0].(type) {
				case nil:
					return nil, nil
				case int64:
					return 2 * v, nil
				case float64:
					return 2 * v, nil
				default:
					return nil, fmt.Errorf("DOUBLE_IT over %T", v)
				}
			},
		})
		if err != nil {
			panic(err)
		}
		// Aggregate: GEOMEAN — non-invertible in this implementation (log
		// sum is invertible, but we deliberately mark it non-invertible to
		// exercise the sliding window's rebuild path for UDAFs).
		err = udf.RegisterAggregate(&udf.Aggregate{
			Name: "GEOMEAN",
			ResultType: func(arg types.Type) (types.Type, error) {
				if !arg.Numeric() {
					return types.Unknown, fmt.Errorf("GEOMEAN needs a number")
				}
				return types.Double, nil
			},
			New: func() udf.AggregateState { return &geomeanState{} },
		})
		if err != nil {
			panic(err)
		}
		// Aggregate: INTCOUNT — a count whose snapshot holds a Go int, a
		// type the object serde cannot encode.
		err = udf.RegisterAggregate(&udf.Aggregate{
			Name:       "INTCOUNT",
			ResultType: func(types.Type) (types.Type, error) { return types.Bigint, nil },
			New:        func() udf.AggregateState { return &intCountState{} },
		})
		if err != nil {
			panic(err)
		}
	})
}

// geomeanState implements the UDAF contract, including snapshot/restore so
// it participates in changelog-backed fault tolerance.
type geomeanState struct {
	logSum float64
	count  int64
}

func (g *geomeanState) Add(v any) error {
	if v == nil {
		return nil
	}
	f, err := toF(v)
	if err != nil {
		return err
	}
	if f <= 0 {
		return nil // geometric mean over positive values only
	}
	g.logSum += math.Log(f)
	g.count++
	return nil
}

func (g *geomeanState) Remove(v any) error { return fmt.Errorf("GEOMEAN is not invertible") }
func (g *geomeanState) Invertible() bool   { return false }

func (g *geomeanState) Value() any {
	if g.count == 0 {
		return nil
	}
	return math.Exp(g.logSum / float64(g.count))
}

func (g *geomeanState) Snapshot() []any { return []any{g.logSum, g.count} }

func (g *geomeanState) Restore(row []any) error {
	if len(row) != 2 {
		return fmt.Errorf("geomean snapshot has %d fields", len(row))
	}
	g.logSum, _ = row[0].(float64)
	g.count, _ = row[1].(int64)
	return nil
}

// intCountState counts its inputs; its Snapshot row holds a Go int.
type intCountState struct{ n int }

func (c *intCountState) Add(v any) error         { c.n++; return nil }
func (c *intCountState) Remove(v any) error      { c.n--; return nil }
func (c *intCountState) Invertible() bool        { return true }
func (c *intCountState) Value() any              { return int64(c.n) }
func (c *intCountState) Snapshot() []any         { return []any{c.n} }
func (c *intCountState) Restore(row []any) error { return fmt.Errorf("intCountState cannot restore") }

func toF(v any) (float64, error) {
	switch t := v.(type) {
	case int64:
		return float64(t), nil
	case float64:
		return t, nil
	default:
		return 0, fmt.Errorf("not a number: %T", v)
	}
}

func TestScalarUDFInQueries(t *testing.T) {
	registerTestUDFs(t)
	e, _ := testEngine(t, 2, 100)
	rows, err := e.ExecuteBounded("SELECT orderId, DOUBLE_IT(units) FROM Orders WHERE DOUBLE_IT(units) > 150")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range replayOrders(t, 100) {
		if 2*r[3].(int64) > 150 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r[1].(int64)%2 != 0 {
			t.Fatalf("DOUBLE_IT produced odd value %v", r[1])
		}
	}
}

func TestScalarUDFTypeError(t *testing.T) {
	registerTestUDFs(t)
	e, _ := testEngine(t, 1, 1)
	_, err := e.ExecuteBounded("SELECT DOUBLE_IT(pad) FROM Orders")
	if err == nil || !strings.Contains(err.Error(), "DOUBLE_IT") {
		t.Fatalf("type error not surfaced: %v", err)
	}
}

func TestUDAFInGroupBy(t *testing.T) {
	registerTestUDFs(t)
	e, _ := testEngine(t, 2, 500)
	rows, err := e.ExecuteBounded("SELECT productId, GEOMEAN(units) FROM Orders GROUP BY productId")
	if err != nil {
		t.Fatal(err)
	}
	// Reference computation.
	logSum := map[int64]float64{}
	count := map[int64]int64{}
	for _, r := range replayOrders(t, 500) {
		pid := r[1].(int64)
		logSum[pid] += math.Log(float64(r[3].(int64)))
		count[pid]++
	}
	if len(rows) != len(count) {
		t.Fatalf("%d groups, want %d", len(rows), len(count))
	}
	for _, r := range rows {
		pid := r[0].(int64)
		want := math.Exp(logSum[pid] / float64(count[pid]))
		got := r[1].(float64)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("group %d: GEOMEAN %v, want %v", pid, got, want)
		}
	}
}

func TestUDAFInSlidingWindow(t *testing.T) {
	registerTestUDFs(t)
	e, _ := testEngine(t, 1, 300)
	rows, err := e.ExecuteBounded(`
		SELECT rowtime, productId, units,
		  GEOMEAN(units) OVER (PARTITION BY productId ORDER BY rowtime
		    RANGE INTERVAL '1' SECOND PRECEDING) g
		FROM Orders`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 300 {
		t.Fatalf("%d rows", len(rows))
	}
	// Reference: per product, geometric mean over trailing 1s window. The
	// non-invertible UDAF exercises the rebuild-from-window path.
	type ev struct{ ts, units int64 }
	hist := map[int64][]ev{}
	idx := 0
	for _, r := range replayOrders(t, 300) {
		pid := r[1].(int64)
		ts := r[0].(int64)
		u := r[3].(int64)
		hist[pid] = append(hist[pid], ev{ts, u})
		var ls float64
		var n int64
		for _, h := range hist[pid] {
			if h.ts >= ts-1000 {
				ls += math.Log(float64(h.units))
				n++
			}
		}
		want := math.Exp(ls / float64(n))
		got := rows[idx][3].(float64)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("row %d (product %d): GEOMEAN %v, want %v", idx, pid, got, want)
		}
		idx++
	}
}

// TestUDAFUnencodableSnapshotFails runs a UDAF whose snapshot the object
// serde cannot encode, over a window and in a GROUP BY: the query must fail
// with an error naming the type. The sliding window used to panic on it,
// taking the container down.
func TestUDAFUnencodableSnapshotFails(t *testing.T) {
	registerTestUDFs(t)
	for _, q := range []string{
		`SELECT rowtime, INTCOUNT(units) OVER (PARTITION BY productId ORDER BY rowtime
			RANGE INTERVAL '1' SECOND PRECEDING) FROM Orders`,
		`SELECT productId, INTCOUNT(units) FROM Orders GROUP BY productId`,
	} {
		e, _ := testEngine(t, 1, 20)
		_, err := e.ExecuteBounded(q)
		if err == nil || !strings.Contains(err.Error(), "cannot encode int") {
			t.Fatalf("%s: error %v, want one naming the Go int", q, err)
		}
	}
}

func TestUDFDuplicateRegistrationRejected(t *testing.T) {
	registerTestUDFs(t)
	err := udf.RegisterScalar(&udf.Scalar{
		Name: "DOUBLE_IT", MinArgs: 1, MaxArgs: 1,
		ResultType: func(args []types.Type) (types.Type, error) { return args[0], nil },
		Eval:       func(args []any) (any, error) { return args[0], nil },
	})
	if err == nil {
		t.Fatal("duplicate scalar registration accepted")
	}
	err = udf.RegisterAggregate(&udf.Aggregate{
		Name:       "GEOMEAN",
		ResultType: func(arg types.Type) (types.Type, error) { return types.Double, nil },
		New:        func() udf.AggregateState { return &geomeanState{} },
	})
	if err == nil {
		t.Fatal("duplicate aggregate registration accepted")
	}
}
