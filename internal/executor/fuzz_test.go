package executor

import (
	"testing"

	"samzasql/internal/sql/parser"
)

// sqlSeeds are the statements FuzzSQL starts from: every block-equivalence
// shape, the repartitioned join, and the repository benchmark's four
// workload queries.
func sqlSeeds() []string {
	seeds := []string{
		"SELECT STREAM rowtime, orderId, productId, units FROM Orders WHERE units > 50",
		`SELECT STREAM Orders.orderId, Products.supplierId
FROM Orders JOIN Products ON Orders.productId = Products.productId`,
		`SELECT STREAM orderId, SUM(units) OVER (PARTITION BY productId ORDER BY rowtime
  RANGE INTERVAL '5' MINUTE PRECEDING) unitsLastFiveMinutes
FROM Orders`,
		`SELECT STREAM Clicks.clickId, Products.supplierId
FROM Clicks JOIN Products ON Clicks.productId = Products.productId`,
		clicksJoin,
		"CREATE VIEW Big AS SELECT STREAM * FROM Orders WHERE units > 90",
		"INSERT INTO Out SELECT STREAM orderId FROM Orders; SELECT * FROM Products;",
		"",
		";;",
		"SELECT",
		"SELECT 'unterminated FROM Orders",
	}
	for _, c := range equivCases {
		seeds = append(seeds, c.query)
	}
	return seeds
}

// FuzzSQL feeds arbitrary text to the SQL front end — the lexer and parser
// (Parse and ParseScript) and the whole of step-one planning (Engine.Prepare:
// validation against the workload catalog, logical plan, optimizer, physical
// compile). Each must return an error or a result, never panic. A statement
// Parse accepts must also be ParseScript's single statement, and must print
// to text that parses back to the same text: tasks re-plan from the printed
// statement the engine publishes.
func FuzzSQL(f *testing.F) {
	for _, s := range sqlSeeds() {
		f.Add(s)
	}
	e := clicksEngine(f, 1)
	f.Fuzz(func(t *testing.T, src string) {
		script, scriptErr := parser.ParseScript(src)
		stmt, err := parser.Parse(src)
		if err != nil {
			return
		}
		if scriptErr != nil || len(script) != 1 {
			t.Fatalf("Parse accepts %q but ParseScript returns %d statements, %v", src, len(script), scriptErr)
		}
		printed := stmt.String()
		if script[0].String() != printed {
			t.Fatalf("Parse and ParseScript disagree on %q:\n  %s\n  %s", src, printed, script[0].String())
		}
		again, err := parser.Parse(printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, err)
		}
		if again.String() != printed {
			t.Fatalf("printing is not stable for %q:\n  1: %s\n  2: %s", src, printed, again.String())
		}
		p, err := e.Prepare(src)
		if err != nil {
			return
		}
		if _, err := e.Prepare(p.Stmt.String()); err != nil {
			t.Fatalf("%q prepares but its printed form %q does not: %v", src, p.Stmt.String(), err)
		}
	})
}
