package executor

import (
	"fmt"
	"sort"
	"testing"
)

// TestOptimizerPreservesSemantics executes a battery of queries with the
// rule-based optimizer on and off and requires identical result sets — the
// global correctness property every opt rule must maintain (§4.2).
func TestOptimizerPreservesSemantics(t *testing.T) {
	queries := []string{
		"SELECT * FROM Orders WHERE units > 50 AND 1 = 1",
		"SELECT rowtime, units * 2 + (3 - 1) FROM Orders WHERE units > 10 OR units < 5",
		"SELECT x + 1 FROM (SELECT units AS x, rowtime FROM Orders) WHERE x > 5",
		`SELECT Orders.orderId, Products.supplierId
		 FROM Orders JOIN Products ON Orders.productId = Products.productId
		 WHERE Orders.units > 10 AND Products.supplierId = 3`,
		`SELECT productId, COUNT(*), SUM(units) FROM Orders
		 GROUP BY productId HAVING COUNT(*) > 2`,
		`SELECT START(rowtime), COUNT(*) FROM Orders
		 GROUP BY TUMBLE(rowtime, INTERVAL '5' SECOND)`,
		`SELECT rowtime, SUM(units) OVER (PARTITION BY productId
		   ORDER BY rowtime RANGE INTERVAL '1' SECOND PRECEDING) s
		 FROM Orders WHERE units > 1`,
		"SELECT CASE WHEN units > 50 THEN 'big' ELSE 'small' END, units FROM Orders WHERE units IN (1, 2, 3, 90, 91)",
	}
	// Every batch-equivalence plan too: with the optimizer off no scan is
	// pruned, so this is the sparse decode against the full-decode reference
	// for each operator kind that stores or forwards rows.
	for _, c := range equivCases {
		queries = append(queries, c.query)
	}
	queries = append(queries, relationJoin)
	for _, q := range queries {
		optEngine, _ := testEngine(t, 4, 800)
		optEngine.Optimize = true
		optimized, err := optEngine.ExecuteBounded(q)
		if err != nil {
			t.Fatalf("optimized %q: %v", q, err)
		}
		rawEngine, _ := testEngine(t, 4, 800)
		rawEngine.Optimize = false
		raw, err := rawEngine.ExecuteBounded(q)
		if err != nil {
			t.Fatalf("unoptimized %q: %v", q, err)
		}
		if len(optimized) != len(raw) {
			t.Fatalf("%q: %d rows optimized vs %d unoptimized", q, len(optimized), len(raw))
		}
		sortRows(optimized)
		sortRows(raw)
		for i := range raw {
			if fmt.Sprintf("%v", optimized[i]) != fmt.Sprintf("%v", raw[i]) {
				t.Fatalf("%q row %d differs:\n  opt: %v\n  raw: %v", q, i, optimized[i], raw[i])
			}
		}
	}
}

func sortRows(rows [][]any) {
	sort.Slice(rows, func(i, j int) bool {
		return fmt.Sprintf("%v", rows[i]) < fmt.Sprintf("%v", rows[j])
	})
}
