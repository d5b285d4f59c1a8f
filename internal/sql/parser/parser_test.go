package parser

import (
	"strings"
	"testing"

	"samzasql/internal/sql/ast"
)

func parseSelect(t *testing.T, src string) *ast.SelectStmt {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	sel, ok := stmt.(*ast.SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *SelectStmt", src, stmt)
	}
	return sel
}

func TestListing1SelectStreamStar(t *testing.T) {
	sel := parseSelect(t, "SELECT STREAM * FROM Orders")
	if !sel.Stream {
		t.Fatal("STREAM keyword lost")
	}
	if len(sel.Items) != 1 || !sel.Items[0].Star {
		t.Fatalf("items %+v", sel.Items)
	}
	tn, ok := sel.From.(*ast.TableName)
	if !ok || tn.Name != "Orders" {
		t.Fatalf("from %+v", sel.From)
	}
}

func TestListing2FilterProjection(t *testing.T) {
	sel := parseSelect(t, `
		SELECT STREAM rowtime, productId, units
		FROM Orders
		WHERE units > 25;`)
	if len(sel.Items) != 3 {
		t.Fatalf("items %v", sel.Items)
	}
	b, ok := sel.Where.(*ast.Binary)
	if !ok || b.Op != ast.OpGt {
		t.Fatalf("where %v", sel.Where)
	}
	if id, ok := b.L.(*ast.Ident); !ok || id.Column() != "units" {
		t.Fatalf("where lhs %v", b.L)
	}
	if n, ok := b.R.(*ast.NumberLit); !ok || !n.IsInt || n.Int != 25 {
		t.Fatalf("where rhs %v", b.R)
	}
}

func TestListing3ViewWithAggregates(t *testing.T) {
	stmt, err := Parse(`
		CREATE VIEW HourlyOrderTotals (rowtime, productId, c, su) AS
		  SELECT FLOOR(rowtime TO HOUR),
		    productId,
		    COUNT(*),
		    SUM(units)
		  FROM Orders
		  GROUP BY FLOOR(rowtime TO HOUR), productId`)
	if err != nil {
		t.Fatal(err)
	}
	view, ok := stmt.(*ast.CreateViewStmt)
	if !ok || view.Name != "HourlyOrderTotals" || len(view.Columns) != 4 {
		t.Fatalf("view %+v", stmt)
	}
	if len(view.Select.GroupBy) != 2 {
		t.Fatalf("group by %v", view.Select.GroupBy)
	}
	if _, ok := view.Select.GroupBy[0].(*ast.FloorTo); !ok {
		t.Fatalf("group by[0] = %T", view.Select.GroupBy[0])
	}
	if cnt, ok := view.Select.Items[2].Expr.(*ast.FuncCall); !ok || !cnt.Star || cnt.Name != "COUNT" {
		t.Fatalf("COUNT(*) parsed as %v", view.Select.Items[2].Expr)
	}
}

func TestListing3Subquery(t *testing.T) {
	sel := parseSelect(t, `
		SELECT STREAM rowtime, productId
		FROM (
		  SELECT FLOOR(rowtime TO HOUR) AS rowtime,
		    productId,
		    COUNT(*) AS c,
		    SUM(units) AS su
		  FROM Orders
		  GROUP BY FLOOR(rowtime TO HOUR), productId)
		WHERE c > 2 OR su > 10`)
	sub, ok := sel.From.(*ast.SubqueryRef)
	if !ok {
		t.Fatalf("from = %T", sel.From)
	}
	if sub.Select.Stream {
		t.Fatal("inner query must not be a stream query")
	}
	or, ok := sel.Where.(*ast.Binary)
	if !ok || or.Op != ast.OpOr {
		t.Fatalf("where %v", sel.Where)
	}
}

func TestListing4Tumble(t *testing.T) {
	sel := parseSelect(t, `
		SELECT STREAM START(rowtime), COUNT(*)
		FROM Orders
		GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR)`)
	call, ok := sel.GroupBy[0].(*ast.FuncCall)
	if !ok || call.Name != "TUMBLE" || len(call.Args) != 2 {
		t.Fatalf("group by %v", sel.GroupBy[0])
	}
	iv, ok := call.Args[1].(*ast.IntervalLit)
	if !ok || iv.Millis != 3600_000 {
		t.Fatalf("interval %v", call.Args[1])
	}
	start, ok := sel.Items[0].Expr.(*ast.FuncCall)
	if !ok || start.Name != "START" {
		t.Fatalf("START aggregate parsed as %v", sel.Items[0].Expr)
	}
}

func TestListing5HopWithAlignment(t *testing.T) {
	sel := parseSelect(t, `
		SELECT STREAM START(rowtime), COUNT(*)
		FROM Orders
		GROUP BY HOP(rowtime,
		  INTERVAL '1:30' HOUR TO MINUTE,
		  INTERVAL '2' HOUR, TIME '0:30')`)
	call, ok := sel.GroupBy[0].(*ast.FuncCall)
	if !ok || call.Name != "HOP" || len(call.Args) != 4 {
		t.Fatalf("group by %v", sel.GroupBy[0])
	}
	emit := call.Args[1].(*ast.IntervalLit)
	if emit.Millis != 90*60*1000 {
		t.Fatalf("emit interval %d ms", emit.Millis)
	}
	retain := call.Args[2].(*ast.IntervalLit)
	if retain.Millis != 2*3600*1000 {
		t.Fatalf("retain interval %d ms", retain.Millis)
	}
	align := call.Args[3].(*ast.TimeLit)
	if align.Millis != 30*60*1000 {
		t.Fatalf("alignment %d ms", align.Millis)
	}
}

func TestListing6SlidingWindow(t *testing.T) {
	sel := parseSelect(t, `
		SELECT STREAM rowtime, productId, units,
		  SUM(units) OVER (PARTITION BY productId ORDER BY rowtime
		    RANGE INTERVAL '1' HOUR PRECEDING) unitsLastHour
		FROM Orders`)
	call, ok := sel.Items[3].Expr.(*ast.FuncCall)
	if !ok || call.Name != "SUM" || call.Over == nil {
		t.Fatalf("item %v", sel.Items[3].Expr)
	}
	if sel.Items[3].Alias != "unitsLastHour" {
		t.Fatalf("alias %q", sel.Items[3].Alias)
	}
	w := call.Over
	if len(w.PartitionBy) != 1 || len(w.OrderBy) != 1 || w.Frame == nil {
		t.Fatalf("window %+v", w)
	}
	if w.Frame.Unit != ast.FrameRange {
		t.Fatal("frame unit not RANGE")
	}
	iv := w.Frame.Preceding.(*ast.IntervalLit)
	if iv.Millis != 3600_000 {
		t.Fatalf("frame bound %d", iv.Millis)
	}
}

func TestListing7StreamToStreamJoin(t *testing.T) {
	sel := parseSelect(t, `
		SELECT STREAM
		  GREATEST(PacketsR1.rowtime, PacketsR2.rowtime) AS rowtime,
		  PacketsR1.sourcetime,
		  PacketsR1.packetId,
		  PacketsR2.rowtime - PacketsR1.rowtime AS timeToTravel
		FROM PacketsR1
		JOIN PacketsR2 ON
		  PacketsR1.rowtime BETWEEN
		    PacketsR2.rowtime - INTERVAL '2' SECOND
		    AND PacketsR2.rowtime + INTERVAL '2' SECOND
		  AND PacketsR1.packetId = PacketsR2.packetId`)
	join, ok := sel.From.(*ast.JoinRef)
	if !ok || join.Kind != ast.InnerJoin {
		t.Fatalf("from %T", sel.From)
	}
	and, ok := join.On.(*ast.Binary)
	if !ok || and.Op != ast.OpAnd {
		t.Fatalf("on %v", join.On)
	}
	if _, ok := and.L.(*ast.Between); !ok {
		t.Fatalf("on left %T", and.L)
	}
}

func TestListing8StreamToRelationJoin(t *testing.T) {
	sel := parseSelect(t, `
		SELECT STREAM
		  Orders.rowtime, Orders.orderId, Orders.productId, Orders.units,
		  Products.supplierId
		FROM Orders
		JOIN Products ON Orders.productId = Products.productId`)
	join := sel.From.(*ast.JoinRef)
	eq, ok := join.On.(*ast.Binary)
	if !ok || eq.Op != ast.OpEq {
		t.Fatalf("on %v", join.On)
	}
	if len(sel.Items) != 5 {
		t.Fatalf("items %v", sel.Items)
	}
}

func TestInsertInto(t *testing.T) {
	stmt, err := Parse("INSERT INTO BigOrders SELECT STREAM * FROM Orders WHERE units > 100")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*ast.InsertStmt)
	if ins.Target != "BigOrders" || !ins.Select.Stream {
		t.Fatalf("insert %+v", ins)
	}
}

func TestHaving(t *testing.T) {
	sel := parseSelect(t, `
		SELECT productId, COUNT(*) c FROM Orders
		GROUP BY productId HAVING COUNT(*) > 5`)
	if sel.Having == nil {
		t.Fatal("HAVING lost")
	}
}

func TestCaseExpressions(t *testing.T) {
	sel := parseSelect(t, `
		SELECT CASE WHEN units > 100 THEN 'big' WHEN units > 10 THEN 'mid' ELSE 'small' END AS label,
		       CASE productId WHEN 1 THEN 'one' ELSE 'other' END
		FROM Orders`)
	c1 := sel.Items[0].Expr.(*ast.Case)
	if c1.Operand != nil || len(c1.Whens) != 2 || c1.Else == nil {
		t.Fatalf("case1 %+v", c1)
	}
	c2 := sel.Items[1].Expr.(*ast.Case)
	if c2.Operand == nil || len(c2.Whens) != 1 {
		t.Fatalf("case2 %+v", c2)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	sel := parseSelect(t, "SELECT a + b * c - d FROM T")
	// Expect (a + (b*c)) - d
	sub := sel.Items[0].Expr.(*ast.Binary)
	if sub.Op != ast.OpSub {
		t.Fatalf("top op %v", sub.Op)
	}
	add := sub.L.(*ast.Binary)
	if add.Op != ast.OpAdd {
		t.Fatalf("left op %v", add.Op)
	}
	mul := add.R.(*ast.Binary)
	if mul.Op != ast.OpMul {
		t.Fatalf("inner op %v", mul.Op)
	}
}

func TestLogicalPrecedence(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM T WHERE a = 1 OR b = 2 AND c = 3")
	or := sel.Where.(*ast.Binary)
	if or.Op != ast.OpOr {
		t.Fatalf("top %v", or.Op)
	}
	and := or.R.(*ast.Binary)
	if and.Op != ast.OpAnd {
		t.Fatalf("right %v", and.Op)
	}
}

func TestNotVariants(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM T WHERE a NOT BETWEEN 1 AND 2 AND b NOT IN (1,2) AND c NOT LIKE 'x%' AND d IS NOT NULL AND NOT e`)
	s := sel.Where.String()
	for _, want := range []string{"NOT BETWEEN", "NOT IN", "NOT LIKE", "IS NOT NULL", "(NOT e)"} {
		if !strings.Contains(s, want) {
			t.Errorf("where %s missing %s", s, want)
		}
	}
}

func TestCastAndConcat(t *testing.T) {
	sel := parseSelect(t, "SELECT CAST(units AS DOUBLE), name || '!' FROM T")
	c := sel.Items[0].Expr.(*ast.Cast)
	if c.TypeName != "DOUBLE" {
		t.Fatalf("cast %+v", c)
	}
	cc := sel.Items[1].Expr.(*ast.Binary)
	if cc.Op != ast.OpConcat {
		t.Fatalf("concat %+v", cc)
	}
}

func TestIntervalValidation(t *testing.T) {
	bad := []string{
		"SELECT INTERVAL 'x' HOUR FROM T",
		"SELECT INTERVAL '1:30' MINUTE TO HOUR FROM T", // TO must be finer
		"SELECT INTERVAL '1' HOUR TO MINUTE FROM T",    // needs 2 fields
		"SELECT TIME '99' FROM T",                      // needs h:mm
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM T",
		"SELECT * FROM",
		"SELECT * FROM T JOIN",
		"SELECT * FROM T JOIN U",
		"SELECT * FROM T WHERE",
		"UPDATE T SET a = 1",
		"SELECT * FROM T; garbage",
		"SELECT a FROM T GROUP",
		"SELECT CASE END FROM T",
		"SELECT SUM(units) OVER (ORDER BY t DESC) FROM T",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	sel := parseSelect(t, `SELECT "weird name" FROM "My Table"`)
	id := sel.Items[0].Expr.(*ast.Ident)
	if id.Column() != "weird name" {
		t.Fatalf("ident %v", id)
	}
	tn := sel.From.(*ast.TableName)
	if tn.Name != "My Table" {
		t.Fatalf("table %v", tn)
	}
}

// Round-trip property: parse → print → parse yields an identical tree
// (compared via printed form).
func TestPrintReparseRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT STREAM * FROM Orders",
		"SELECT STREAM rowtime, productId, units FROM Orders WHERE units > 25",
		"SELECT STREAM START(rowtime), COUNT(*) FROM Orders GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR)",
		"SELECT STREAM START(rowtime), COUNT(*) FROM Orders GROUP BY HOP(rowtime, INTERVAL '1:30' HOUR TO MINUTE, INTERVAL '2' HOUR, TIME '0:30')",
		"SELECT STREAM rowtime, SUM(units) OVER (PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '5' MINUTE PRECEDING) u FROM Orders",
		"SELECT STREAM o.rowtime FROM Orders AS o JOIN Products AS p ON o.productId = p.productId",
		"CREATE VIEW V (a, b) AS SELECT rowtime, units FROM Orders",
		"INSERT INTO Out SELECT STREAM * FROM Orders WHERE units BETWEEN 1 AND 10",
		"SELECT CASE WHEN a THEN 1 ELSE 2 END FROM T",
		"SELECT * FROM (SELECT a, COUNT(*) c FROM T GROUP BY a) WHERE c > 2 OR c < 1",
		"SELECT DISTINCT a FROM T HAVING COUNT(*) > 1",
		"SELECT a FROM T WHERE b IS NULL AND c IN (1, 2, 3) AND d LIKE 'x%'",
	}
	for _, q := range queries {
		s1, err := Parse(q)
		if err != nil {
			t.Errorf("Parse(%q): %v", q, err)
			continue
		}
		printed := s1.String()
		s2, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse of %q (printed %q): %v", q, printed, err)
			continue
		}
		if s2.String() != printed {
			t.Errorf("round trip unstable:\n  1: %s\n  2: %s", printed, s2.String())
		}
	}
}
