package plan

import (
	"strings"
	"testing"

	"stagedb/internal/catalog"
	"stagedb/internal/sql"
	"stagedb/internal/value"
)

// countParams walks a plan counting the parameters it still references —
// the oracle the substitution tests check Substitute against.
func countParams(n Node) int {
	max := 0
	var visitExpr func(Expr)
	visitExpr = func(e Expr) {
		if e == nil {
			return
		}
		switch x := e.(type) {
		case *Param:
			if x.Idx+1 > max {
				max = x.Idx + 1
			}
		case *Binary:
			visitExpr(x.L)
			visitExpr(x.R)
		case *Not:
			visitExpr(x.E)
		case *Neg:
			visitExpr(x.E)
		case *Between:
			visitExpr(x.E)
			visitExpr(x.Lo)
			visitExpr(x.Hi)
		case *In:
			visitExpr(x.E)
			for _, item := range x.List {
				visitExpr(item)
			}
		case *Like:
			visitExpr(x.E)
			visitExpr(x.Pattern)
		case *IsNull:
			visitExpr(x.E)
		}
	}
	var visit func(Node)
	visit = func(n Node) {
		for _, e := range nodeExprs(n) {
			visitExpr(e)
		}
		for _, c := range n.Children() {
			visit(c)
		}
	}
	visit(n)
	return max
}

func paramCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	tbl, err := cat.Create("t", catalog.Schema{Columns: []catalog.Column{
		{Name: "id", Type: value.Int, PrimaryKey: true},
		{Name: "v", Type: value.Int},
		{Name: "name", Type: value.Text},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AddIndex("t", "pk_t", "id", true); err != nil {
		t.Fatal(err)
	}
	_ = tbl
	return cat
}

// TestBindPlaceholderBecomesParam: `?` binds to a Param expression that
// refuses to evaluate unbound.
func TestBindPlaceholderBecomesParam(t *testing.T) {
	cat := paramCatalog(t)
	sel := sql.MustParse("SELECT v FROM t WHERE v > ?").(*sql.Select)
	node, err := BindSelect(cat, sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := countParams(node); got != 1 {
		t.Fatalf("CountParams = %d, want 1", got)
	}
	p := &Param{Idx: 0}
	if _, err := p.Eval(nil); err == nil {
		t.Fatal("unbound Param must not evaluate")
	}
}

// TestParamIndexBound: a `?` equality on an indexed column keeps its
// IndexScan in the prepared plan; Substitute resolves the bound.
func TestParamIndexBound(t *testing.T) {
	cat := paramCatalog(t)
	sel := sql.MustParse("SELECT v FROM t WHERE id = ?").(*sql.Select)
	node, err := BindSelect(cat, sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Explain(node), "IndexScan") {
		t.Fatalf("parameterized point query should plan an IndexScan:\n%s", Explain(node))
	}
	bound, err := Substitute(node, []value.Value{value.NewInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	// The original plan must be untouched (it is shared across executions).
	if countParams(node) != 1 {
		t.Fatal("Substitute mutated the cached plan")
	}
	if countParams(bound) != 0 {
		t.Fatal("Substitute left parameters in the private copy")
	}
	var scan *IndexScan
	var find func(Node)
	find = func(n Node) {
		if s, ok := n.(*IndexScan); ok {
			scan = s
		}
		for _, c := range n.Children() {
			find(c)
		}
	}
	find(bound)
	if scan == nil {
		t.Fatal("no IndexScan in substituted plan")
	}
	lo, hi, err := scan.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if lo.Int() != 7 || hi.Int() != 7 {
		t.Fatalf("bounds = [%s, %s], want [7, 7]", lo, hi)
	}
}

// TestSubstituteArityError: substituting too few arguments fails.
func TestSubstituteArityError(t *testing.T) {
	cat := paramCatalog(t)
	sel := sql.MustParse("SELECT v FROM t WHERE v BETWEEN ? AND ?").(*sql.Select)
	node, err := BindSelect(cat, sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Substitute(node, []value.Value{value.NewInt(1)}); err == nil {
		t.Fatal("short argument list must fail")
	}
	if _, err := Substitute(node, []value.Value{value.NewInt(1), value.NewInt(5)}); err != nil {
		t.Fatal(err)
	}
}

// TestSubstituteDistinct: a prepared SELECT DISTINCT rides through Substitute
// as the grouping it binds to, and matches the literal query.
func TestSubstituteDistinct(t *testing.T) {
	cat := paramCatalog(t)
	bind := func(q string) Node {
		t.Helper()
		node, err := BindSelect(cat, sql.MustParse(q).(*sql.Select), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	prepared := bind("SELECT DISTINCT name FROM t WHERE v < ?")
	bound, err := Substitute(prepared, []value.Value{value.NewInt(5)})
	if err != nil {
		t.Fatal(err)
	}
	if countParams(prepared) != 1 || countParams(bound) != 0 {
		t.Fatalf("parameters: %d in the prepared plan, %d after Substitute", countParams(prepared), countParams(bound))
	}
	got, want := Explain(bound), Explain(bind("SELECT DISTINCT name FROM t WHERE v < 5"))
	if got != want || !strings.HasPrefix(got, "Aggregate groups=1 aggs=0") {
		t.Fatalf("substituted plan:\n%s\nliteral plan:\n%s", got, want)
	}
}
