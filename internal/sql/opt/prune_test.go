package opt

import (
	"strings"
	"testing"

	"samzasql/internal/sql/catalog"
	"samzasql/internal/sql/parser"
	"samzasql/internal/sql/plan"
	"samzasql/internal/sql/types"
	"samzasql/internal/sql/validate"
)

// wideCatalog has rows wide enough that every query below leaves something
// unread.
func wideCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, o := range []*catalog.Object{
		{
			Kind: catalog.Stream, Name: "Orders", Topic: "orders", TimestampCol: "rowtime",
			Row: types.NewRowType(
				types.Column{Name: "rowtime", Type: types.Timestamp},
				types.Column{Name: "productId", Type: types.Bigint},
				types.Column{Name: "orderId", Type: types.Bigint},
				types.Column{Name: "units", Type: types.Bigint},
				types.Column{Name: "pad", Type: types.Varchar},
			),
		},
		{
			Kind: catalog.Table, Name: "Products", Topic: "products",
			Row: types.NewRowType(
				types.Column{Name: "productId", Type: types.Bigint},
				types.Column{Name: "name", Type: types.Varchar},
				types.Column{Name: "supplierId", Type: types.Bigint},
			),
		},
	} {
		if err := cat.Define(o); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func widePlan(t *testing.T, query string) plan.Node {
	t.Helper()
	stmt, err := parser.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := validate.New(wideCatalog(t)).Validate(stmt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(res)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// scansOf collects the plan's scans by object name.
func scansOf(n plan.Node, into map[string]*plan.Scan) map[string]*plan.Scan {
	if s, ok := n.(*plan.Scan); ok {
		into[s.Object.Name] = s
	}
	for _, c := range n.Inputs() {
		scansOf(c, into)
	}
	return into
}

// requiredNames renders a scan's required columns; "*" when it reads all.
func requiredNames(s *plan.Scan) string {
	if s.Required == nil {
		return "*"
	}
	var names []string
	for i, r := range s.Required {
		if r {
			names = append(names, s.Object.Row.Columns[i].Name)
		}
	}
	return strings.Join(names, ",")
}

func TestRequiredColumns(t *testing.T) {
	cases := []struct {
		name, query string
		want        map[string]string // object name -> required columns
	}{
		{
			"filter reads its predicate, the projection and the event time",
			"SELECT STREAM rowtime, orderId, productId, units FROM Orders WHERE units > 50",
			map[string]string{"Orders": "rowtime,productId,orderId,units"},
		},
		{
			"timestamp column survives even when no operator reads it",
			"SELECT STREAM orderId FROM Orders",
			map[string]string{"Orders": "rowtime,orderId"},
		},
		{
			"identity projection requires every column",
			"SELECT STREAM * FROM Orders WHERE units > 50",
			map[string]string{"Orders": "*"},
		},
		{
			"insert requires every column of its input",
			"INSERT INTO big SELECT STREAM * FROM Orders",
			map[string]string{"Orders": "*"},
		},
		{
			"join reads both keys and what is projected above it",
			`SELECT STREAM Orders.orderId, Products.supplierId
			 FROM Orders JOIN Products ON Orders.productId = Products.productId`,
			map[string]string{"Orders": "rowtime,productId,orderId", "Products": "productId,supplierId"},
		},
		{
			"filter pushed below the join keeps its column on that side",
			`SELECT STREAM Orders.orderId, Products.name
			 FROM Orders JOIN Products ON Orders.productId = Products.productId
			 WHERE Products.supplierId = 3 AND Orders.units > 1`,
			map[string]string{"Orders": "rowtime,productId,orderId,units", "Products": "*"},
		},
		{
			"aggregate reads keys, arguments and the window timestamp",
			`SELECT STREAM productId, SUM(units) FROM Orders
			 GROUP BY TUMBLE(rowtime, INTERVAL '1' SECOND), productId`,
			map[string]string{"Orders": "rowtime,productId,units"},
		},
		{
			"analytic reads partition, order and argument, and passes the projected input columns",
			`SELECT STREAM orderId, SUM(units) OVER (PARTITION BY productId ORDER BY rowtime
			   RANGE INTERVAL '5' MINUTE PRECEDING) FROM Orders`,
			map[string]string{"Orders": "rowtime,productId,orderId,units"},
		},
	}
	for _, c := range cases {
		raw := widePlan(t, c.query)
		optimized := Optimize(raw)
		for name, want := range c.want {
			s := scansOf(optimized, map[string]*plan.Scan{})[name]
			if s == nil {
				t.Fatalf("%s: no scan of %s in\n%s", c.name, name, plan.Format(optimized))
			}
			if got := requiredNames(s); got != want {
				t.Errorf("%s: %s requires %q, want %q\n%s", c.name, name, got, want, plan.Format(optimized))
			}
		}
		// The unoptimized plan is the full-decode reference: its scans (which
		// the rewrite rules share with the optimized tree) stay unmarked.
		for name, s := range scansOf(raw, map[string]*plan.Scan{}) {
			if s.Required != nil {
				t.Errorf("%s: optimizing marked the unoptimized plan's scan of %s", c.name, name)
			}
		}
	}
}

func TestRequiredColumnsShownInExplain(t *testing.T) {
	p := Optimize(widePlan(t, "SELECT STREAM orderId FROM Orders"))
	if got := plan.Format(p); !strings.Contains(got, "Scan(Orders, stream) cols=[rowtime, orderId]") {
		t.Fatalf("pruned scan not rendered:\n%s", got)
	}
}
