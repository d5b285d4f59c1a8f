package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"samzasql/internal/sql/types"
)

func eval(t *testing.T, e Expr, row []any) any {
	t.Helper()
	ev, err := Compile(e)
	if err != nil {
		t.Fatalf("compile %s: %v", e, err)
	}
	v, err := ev(row)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

func col(i int, t types.Type) *ColRef { return &ColRef{Idx: i, Name: "c", T: t} }
func ci(v int64) *Const               { return &Const{V: v, T: types.Bigint} }
func cf(v float64) *Const             { return &Const{V: v, T: types.Double} }
func cs(v string) *Const              { return &Const{V: v, T: types.Varchar} }
func cb(v bool) *Const                { return &Const{V: v, T: types.Boolean} }
func cnull() *Const                   { return &Const{V: nil, T: types.Null} }

func TestArithmetic(t *testing.T) {
	row := []any{int64(10), 2.5}
	cases := []struct {
		e    Expr
		want any
	}{
		{&Binary{Op: Add, L: col(0, types.Bigint), R: ci(5), T: types.Bigint}, int64(15)},
		{&Binary{Op: Sub, L: col(0, types.Bigint), R: ci(3), T: types.Bigint}, int64(7)},
		{&Binary{Op: Mul, L: col(0, types.Bigint), R: ci(4), T: types.Bigint}, int64(40)},
		{&Binary{Op: Div, L: col(0, types.Bigint), R: ci(3), T: types.Bigint}, int64(3)},
		{&Binary{Op: Mod, L: col(0, types.Bigint), R: ci(3), T: types.Bigint}, int64(1)},
		{&Binary{Op: Add, L: col(1, types.Double), R: cf(0.5), T: types.Double}, 3.0},
		{&Binary{Op: Mul, L: col(0, types.Bigint), R: cf(0.5), T: types.Double}, 5.0},
		{&Neg{X: col(0, types.Bigint)}, int64(-10)},
	}
	for _, tc := range cases {
		if got := eval(t, tc.e, row); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.e, got, tc.want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	ev := MustCompile(&Binary{Op: Div, L: ci(1), R: ci(0), T: types.Bigint})
	if _, err := ev(nil); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		op   BinOp
		l, r Expr
		want any
	}{
		{Eq, ci(1), ci(1), true},
		{Neq, ci(1), ci(2), true},
		{Lt, ci(1), ci(2), true},
		{Lte, ci(2), ci(2), true},
		{Gt, cf(2.5), ci(2), true},
		{Gte, ci(1), cf(1.5), false},
		{Eq, cs("a"), cs("a"), true},
		{Lt, cs("a"), cs("b"), true},
		{Eq, cb(true), cb(true), true},
		{Lt, cb(false), cb(true), true},
	}
	for _, tc := range cases {
		e := &Binary{Op: tc.op, L: tc.l, R: tc.r, T: types.Boolean}
		if got := eval(t, e, nil); got != tc.want {
			t.Errorf("%s = %v, want %v", e, got, tc.want)
		}
	}
}

func TestNullPropagation(t *testing.T) {
	// NULL poisons arithmetic and comparisons.
	for _, e := range []Expr{
		&Binary{Op: Add, L: cnull(), R: ci(1), T: types.Bigint},
		&Binary{Op: Eq, L: cnull(), R: ci(1), T: types.Boolean},
		&Neg{X: cnull()},
		&Call{Fn: "GREATEST", Args: []Expr{ci(1), cnull()}, T: types.Bigint},
	} {
		if got := eval(t, e, nil); got != nil {
			t.Errorf("%s = %v, want NULL", e, got)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	// FALSE AND NULL = FALSE; TRUE OR NULL = TRUE; TRUE AND NULL = NULL.
	cases := []struct {
		op   BinOp
		l, r Expr
		want any
	}{
		{And, cb(false), cnull(), false},
		{And, cnull(), cb(false), false},
		{And, cb(true), cnull(), nil},
		{Or, cb(true), cnull(), true},
		{Or, cnull(), cb(true), true},
		{Or, cb(false), cnull(), nil},
		{And, cb(true), cb(true), true},
		{Or, cb(false), cb(false), false},
	}
	for _, tc := range cases {
		e := &Binary{Op: tc.op, L: tc.l, R: tc.r, T: types.Boolean}
		if got := eval(t, e, nil); got != tc.want {
			t.Errorf("%s = %v, want %v", e, got, tc.want)
		}
	}
}

func TestIsNullAndNot(t *testing.T) {
	if got := eval(t, &IsNull{X: cnull()}, nil); got != true {
		t.Errorf("NULL IS NULL = %v", got)
	}
	if got := eval(t, &IsNull{X: ci(1), Not: true}, nil); got != true {
		t.Errorf("1 IS NOT NULL = %v", got)
	}
	if got := eval(t, &Not{X: cb(false)}, nil); got != true {
		t.Errorf("NOT FALSE = %v", got)
	}
	if got := eval(t, &Not{X: cnull()}, nil); got != nil {
		t.Errorf("NOT NULL = %v", got)
	}
}

func TestCase(t *testing.T) {
	e := &Case{
		Whens: []CaseWhen{
			{When: &Binary{Op: Gt, L: col(0, types.Bigint), R: ci(100), T: types.Boolean}, Then: cs("big")},
			{When: &Binary{Op: Gt, L: col(0, types.Bigint), R: ci(10), T: types.Boolean}, Then: cs("mid")},
		},
		Else: cs("small"),
		T:    types.Varchar,
	}
	for _, tc := range []struct {
		in   int64
		want string
	}{{200, "big"}, {50, "mid"}, {5, "small"}} {
		if got := eval(t, e, []any{tc.in}); got != tc.want {
			t.Errorf("case(%d) = %v, want %s", tc.in, got, tc.want)
		}
	}
	// No ELSE => NULL.
	e2 := &Case{Whens: []CaseWhen{{When: cb(false), Then: ci(1)}}, T: types.Bigint}
	if got := eval(t, e2, nil); got != nil {
		t.Errorf("case without else = %v", got)
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%lo", true},
		{"hello", "h_llo", true},
		{"hello", "h_l_o", true},
		{"hello", "x%", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "%b%", true},
		{"abc", "a%%c", true},
		{"ab", "a_c", false},
	}
	for _, tc := range cases {
		e := &Like{X: cs(tc.s), Pattern: cs(tc.p)}
		if got := eval(t, e, nil); got != tc.want {
			t.Errorf("%q LIKE %q = %v, want %v", tc.s, tc.p, got, tc.want)
		}
	}
	// NOT LIKE inverts.
	e := &Like{Not: true, X: cs("abc"), Pattern: cs("a%")}
	if got := eval(t, e, nil); got != false {
		t.Errorf("NOT LIKE = %v", got)
	}
}

func TestInList(t *testing.T) {
	e := &InList{X: col(0, types.Bigint), List: []Expr{ci(1), ci(2), ci(3)}}
	if got := eval(t, e, []any{int64(2)}); got != true {
		t.Errorf("2 IN (1,2,3) = %v", got)
	}
	if got := eval(t, e, []any{int64(9)}); got != false {
		t.Errorf("9 IN (1,2,3) = %v", got)
	}
	// Unknown semantics: 9 IN (1, NULL) is NULL.
	e2 := &InList{X: ci(9), List: []Expr{ci(1), cnull()}}
	if got := eval(t, e2, nil); got != nil {
		t.Errorf("9 IN (1, NULL) = %v", got)
	}
}

func TestCasts(t *testing.T) {
	cases := []struct {
		x    Expr
		to   types.Type
		want any
	}{
		{cf(2.9), types.Bigint, int64(2)},
		{ci(2), types.Double, 2.0},
		{ci(42), types.Varchar, "42"},
		{cs("17"), types.Bigint, int64(17)},
		{cs("2.5"), types.Double, 2.5},
		{cs("true"), types.Boolean, true},
		{cb(true), types.Bigint, int64(1)},
	}
	for _, tc := range cases {
		e := &Cast{X: tc.x, T: tc.to}
		if got := eval(t, e, nil); got != tc.want {
			t.Errorf("%s = %v (%T), want %v", e, got, got, tc.want)
		}
	}
	ev := MustCompile(&Cast{X: cs("xyz"), T: types.Bigint})
	if _, err := ev(nil); err == nil {
		t.Error("cast 'xyz' to BIGINT succeeded")
	}
}

func TestScalarFunctions(t *testing.T) {
	cases := []struct {
		e    Expr
		want any
	}{
		{&Call{Fn: "GREATEST", Args: []Expr{ci(3), ci(9), ci(5)}, T: types.Bigint}, int64(9)},
		{&Call{Fn: "LEAST", Args: []Expr{ci(3), ci(9), ci(5)}, T: types.Bigint}, int64(3)},
		{&Call{Fn: "COALESCE", Args: []Expr{cnull(), ci(7)}, T: types.Bigint}, int64(7)},
		{&Call{Fn: "ABS", Args: []Expr{ci(-5)}, T: types.Bigint}, int64(5)},
		{&Call{Fn: "ABS", Args: []Expr{cf(-2.5)}, T: types.Double}, 2.5},
		{&Call{Fn: "MOD", Args: []Expr{ci(10), ci(3)}, T: types.Bigint}, int64(1)},
		{&Call{Fn: "POWER", Args: []Expr{ci(2), ci(10)}, T: types.Double}, 1024.0},
		{&Call{Fn: "SQRT", Args: []Expr{ci(16)}, T: types.Double}, 4.0},
		{&Call{Fn: "UPPER", Args: []Expr{cs("abc")}, T: types.Varchar}, "ABC"},
		{&Call{Fn: "LOWER", Args: []Expr{cs("ABC")}, T: types.Varchar}, "abc"},
		{&Call{Fn: "TRIM", Args: []Expr{cs(" x ")}, T: types.Varchar}, "x"},
		{&Call{Fn: "SUBSTRING", Args: []Expr{cs("hello"), ci(2)}, T: types.Varchar}, "ello"},
		{&Call{Fn: "SUBSTRING", Args: []Expr{cs("hello"), ci(2), ci(3)}, T: types.Varchar}, "ell"},
		{&Call{Fn: "CHAR_LENGTH", Args: []Expr{cs("hello")}, T: types.Bigint}, int64(5)},
		{&Call{Fn: "FLOOR", Args: []Expr{cf(2.7)}, T: types.Double}, 2.0},
		{&Call{Fn: "CEIL", Args: []Expr{cf(2.1)}, T: types.Double}, 3.0},
	}
	for _, tc := range cases {
		if got := eval(t, tc.e, nil); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.e, got, tc.want)
		}
	}
}

func TestFloorTime(t *testing.T) {
	hour := int64(3600 * 1000)
	e := &FloorTime{X: col(0, types.Timestamp), UnitMillis: hour, UnitName: "HOUR"}
	ts := int64(3*hour + 1234567)
	if got := eval(t, e, []any{ts}); got != 3*hour {
		t.Errorf("FLOOR TO HOUR = %v, want %d", got, 3*hour)
	}
}

func TestConcat(t *testing.T) {
	e := &Binary{Op: Concat, L: cs("a"), R: ci(1), T: types.Varchar}
	if got := eval(t, e, nil); got != "a1" {
		t.Errorf("concat = %v", got)
	}
}

func TestUnknownFunctionRejected(t *testing.T) {
	if _, err := Compile(&Call{Fn: "FROB", T: types.Bigint}); err == nil {
		t.Fatal("unknown function compiled")
	}
}

// Property: LIKE with a pattern equal to the string (no wildcards) matches
// exactly that string.
func TestPropertyLikeExact(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsAny(s, "%_") {
			return true
		}
		return likeMatch(s, s) && (s == "" || !likeMatch(s+"x", s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CompareValues is antisymmetric and reflexive over int64.
func TestPropertyCompareInts(t *testing.T) {
	f := func(a, b int64) bool {
		ab, err1 := CompareValues(a, b)
		ba, err2 := CompareValues(b, a)
		aa, err3 := CompareValues(a, a)
		return err1 == nil && err2 == nil && err3 == nil &&
			ab == -ba && aa == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: integer Add/Sub round-trip.
func TestPropertyAddSubInverse(t *testing.T) {
	f := func(a, b int64) bool {
		add := MustCompile(&Binary{Op: Add, L: ci(a), R: ci(b), T: types.Bigint})
		s, err := add(nil)
		if err != nil {
			return false
		}
		sub := MustCompile(&Binary{Op: Sub, L: ci(s.(int64)), R: ci(b), T: types.Bigint})
		r, err := sub(nil)
		return err == nil && r.(int64) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// MustCompile panics on compile errors, for expressions a test builds by
// hand.
func MustCompile(e Expr) Evaluator {
	ev, err := Compile(e)
	if err != nil {
		panic(err)
	}
	return ev
}
