package plan

import (
	"testing"
	"testing/quick"

	"stagedb/internal/catalog"
	"stagedb/internal/sql"
	"stagedb/internal/value"
)

func testTable() *catalog.Table {
	return &catalog.Table{
		Name: "t",
		Schema: catalog.Schema{Columns: []catalog.Column{
			{Name: "a", Type: value.Int},
			{Name: "b", Type: value.Text},
			{Name: "c", Type: value.Float},
		}},
		Stats: catalog.TableStats{
			RowCount: 1000,
			Columns: []catalog.ColumnStats{
				{Distinct: 100, Min: value.NewInt(0), Max: value.NewInt(999)},
				{Distinct: 50},
				{Distinct: 10, Min: value.NewFloat(0), Max: value.NewFloat(10)},
			},
		},
	}
}

func bindExpr(t *testing.T, src string) Expr {
	t.Helper()
	stmt := sql.MustParse("SELECT * FROM t WHERE " + src).(*sql.Select)
	e, err := BindTableExpr(testTable(), stmt.Where)
	if err != nil {
		t.Fatalf("bind %q: %v", src, err)
	}
	return e
}

func TestExprEvalMatrix(t *testing.T) {
	row := value.Row{value.NewInt(7), value.NewText("hello"), value.NewFloat(2.5)}
	cases := []struct {
		src  string
		want bool
	}{
		{"a = 7", true},
		{"a != 7", false},
		{"a + 1 > 7", true},
		{"a * c = 17.5", true},
		{"b LIKE 'he%'", true},
		{"b NOT LIKE 'he%'", false},
		{"a BETWEEN 5 AND 9", true},
		{"a NOT BETWEEN 5 AND 9", false},
		{"a IN (1, 7, 9)", true},
		{"a NOT IN (1, 7, 9)", false},
		{"b IS NULL", false},
		{"b IS NOT NULL", true},
		{"NOT a = 7", false},
		{"a = 7 AND c < 3", true},
		{"a = 0 OR c > 2", true},
		{"-a = -7", true},
	}
	for _, c := range cases {
		e := bindExpr(t, c.src)
		got, err := EvalPredicate(e, row)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if got != c.want {
			t.Fatalf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestNullComparisonsAreFalse(t *testing.T) {
	row := value.Row{value.NewNull(), value.NewNull(), value.NewNull()}
	for _, src := range []string{"a = 0", "a != 0", "a < 5", "a BETWEEN 1 AND 2", "a IN (1)", "b LIKE 'x%'"} {
		got, err := EvalPredicate(bindExpr(t, src), row)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got {
			t.Fatalf("%q should be false on NULL", src)
		}
	}
	got, _ := EvalPredicate(bindExpr(t, "a IS NULL"), row)
	if !got {
		t.Fatal("IS NULL should hold")
	}
}

func TestConstantFoldingProperty(t *testing.T) {
	// fold() must preserve evaluation results for arbitrary int constants.
	if err := quick.Check(func(x, y int16) bool {
		l := &Binary{Op: "+", L: &Const{Val: value.NewInt(int64(x))}, R: &Const{Val: value.NewInt(int64(y))}}
		folded := fold(l)
		c, ok := folded.(*Const)
		if !ok {
			return false
		}
		return c.Val.Int() == int64(x)+int64(y)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFilterSelectivityRanges(t *testing.T) {
	tbl := testTable()
	eq := bindExpr(t, "a = 5")
	if got := filterSelectivity(eq, tbl); got != 0.01 {
		t.Fatalf("equality selectivity %v, want 0.01 (1/100 distinct)", got)
	}
	rng := bindExpr(t, "a BETWEEN 0 AND 99")
	got := filterSelectivity(rng, tbl)
	if got < 0.08 || got > 0.12 {
		t.Fatalf("range selectivity %v, want ~0.1", got)
	}
	or := bindExpr(t, "a = 5 OR a = 6")
	if got := filterSelectivity(or, tbl); got < 0.019 || got > 0.021 {
		t.Fatalf("OR selectivity %v, want ~0.02", got)
	}
}

func TestIndexableBoundForms(t *testing.T) {
	cases := []struct {
		src    string
		col    int
		eq     bool
		usable bool
	}{
		{"a = 5", 0, true, true},
		{"5 = a", 0, true, true},
		{"a >= 10", 0, false, true},
		{"10 >= a", 0, false, true}, // reversed: a <= 10
		{"a BETWEEN 1 AND 2", 0, false, true},
		{"a + 1 = 5", 0, false, false},
		{"a = c", 0, false, false},
		{"b LIKE 'x%'", 0, false, false},
	}
	for _, c := range cases {
		e := bindExpr(t, c.src)
		col, _, _, eq, ok := indexableBound(e)
		if ok != c.usable {
			t.Fatalf("%q usable=%v, want %v", c.src, ok, c.usable)
		}
		if ok && (col != c.col || eq != c.eq) {
			t.Fatalf("%q -> col=%d eq=%v", c.src, col, eq)
		}
	}
}

func TestSchemaFind(t *testing.T) {
	s := Schema{
		{Table: "a", Name: "id", Type: value.Int},
		{Table: "b", Name: "id", Type: value.Int},
		{Table: "b", Name: "x", Type: value.Text},
	}
	if s.Find("a", "id") != 0 || s.Find("b", "id") != 1 {
		t.Fatal("qualified find")
	}
	if s.Find("", "id") != -2 {
		t.Fatal("unqualified ambiguous find should return -2")
	}
	if s.Find("", "x") != 2 {
		t.Fatal("unqualified unique find")
	}
	if s.Find("", "nope") != -1 {
		t.Fatal("absent find")
	}
}

func TestSplitConjuncts(t *testing.T) {
	stmt := sql.MustParse("SELECT * FROM t WHERE a = 1 AND b = 'x' AND (c > 2 OR a < 0)").(*sql.Select)
	parts := splitConjuncts(stmt.Where)
	if len(parts) != 3 {
		t.Fatalf("got %d conjuncts", len(parts))
	}
	if splitConjuncts(nil) != nil {
		t.Fatal("nil input")
	}
}

func TestAggSpecResultTypes(t *testing.T) {
	intArg := &Column{Idx: 0, Typ: value.Int}
	floatArg := &Column{Idx: 2, Typ: value.Float}
	cases := []struct {
		spec AggSpec
		want value.Type
	}{
		{AggSpec{Kind: AggCountStar}, value.Int},
		{AggSpec{Kind: AggCount, Arg: intArg}, value.Int},
		{AggSpec{Kind: AggSum, Arg: intArg}, value.Int},
		{AggSpec{Kind: AggSum, Arg: floatArg}, value.Float},
		{AggSpec{Kind: AggAvg, Arg: intArg}, value.Float},
		{AggSpec{Kind: AggMin, Arg: floatArg}, value.Float},
	}
	for _, c := range cases {
		if got := c.spec.ResultType(); got != c.want {
			t.Fatalf("%s -> %s, want %s", c.spec.Kind, got, c.want)
		}
	}
}

func TestStageOfMapping(t *testing.T) {
	tbl := testTable()
	scan := &SeqScan{Table: tbl, Binding: "t", out: scanSchema(tbl, "t")}
	if StageOf(scan) != "fscan:t" {
		t.Fatalf("seq scan stage: %s", StageOf(scan))
	}
	if StageOf(&Sort{Child: scan}) != "sort" {
		t.Fatal("stage mapping")
	}
	if StageOf(&Filter{Child: scan}) != "filter" {
		t.Fatalf("filter stage: %s", StageOf(&Filter{Child: scan}))
	}
	// SELECT DISTINCT is a grouping by every output column, with no
	// aggregates and GROUP BY's estimate, over the projection: it runs on the
	// aggr stage.
	cat := paramCatalog(t)
	node, err := BindSelect(cat, sql.MustParse("SELECT DISTINCT v, name FROM t").(*sql.Select), Options{})
	if err != nil {
		t.Fatal(err)
	}
	agg, ok := node.(*Aggregate)
	if !ok || agg.String() != "Aggregate groups=2 aggs=0" || StageOf(agg) != "aggr" {
		t.Fatalf("SELECT DISTINCT binds to:\n%s", Explain(node))
	}
	if _, ok := agg.Child.(*Project); !ok || agg.Rows() != agg.Child.Rows()/10 {
		t.Fatalf("DISTINCT grouping over %T, estimated %v rows:\n%s", agg.Child, agg.Rows(), Explain(node))
	}
	// The grouping does not keep its input's order, so an ORDER BY below the
	// projection is refused.
	if _, err := BindSelect(cat, sql.MustParse("SELECT DISTINCT name FROM t ORDER BY v").(*sql.Select), Options{}); err == nil {
		t.Fatal("SELECT DISTINCT ordered by a column outside the select list must not bind")
	}
}

// TestAggregateEstimateFromDistinct: a GROUP BY over base-table columns with
// analyzed distinct counts estimates their product, capped by the input
// rows; an expression key, a column never analyzed or no statistics at all
// fall back to a tenth of the input.
func TestAggregateEstimateFromDistinct(t *testing.T) {
	cat := catalog.New()
	for _, name := range []string{"t", "u"} {
		if _, err := cat.Create(name, catalog.Schema{Columns: []catalog.Column{
			{Name: "a", Type: value.Int}, {Name: "b", Type: value.Int}, {Name: "c", Type: value.Int},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	// t: a analyzed (40 values), b analyzed (300), c never analyzed.
	cat.UpdateStats("t", catalog.TableStats{RowCount: 10_000, Columns: []catalog.ColumnStats{
		{Distinct: 40}, {Distinct: 300}, {},
	}})
	// est binds q and returns its Aggregate's estimate and the fallback, a
	// tenth of the aggregate's input.
	est := func(q string) (got, fallback float64) {
		t.Helper()
		node, err := BindSelect(cat, sql.MustParse(q).(*sql.Select), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if proj, ok := node.(*Project); ok {
			node = proj.Child
		}
		agg, ok := node.(*Aggregate)
		if !ok {
			t.Fatalf("%s binds to:\n%s", q, Explain(node))
		}
		return agg.Est, max(agg.Child.Rows()/10, 1)
	}
	for _, tc := range []struct {
		q    string
		want float64 // 0: the fallback
	}{
		{"SELECT a, COUNT(*) FROM t GROUP BY a", 40},
		{"SELECT b, COUNT(*) FROM t GROUP BY b", 300},
		{"SELECT a, b, COUNT(*) FROM t GROUP BY a, b", 10_000}, // 12,000 capped by the rows
		{"SELECT t.b, COUNT(*) FROM t JOIN u ON t.a = u.a GROUP BY t.b", 300},
		{"SELECT a + 1, COUNT(*) FROM t GROUP BY a + 1", 0},                 // expression
		{"SELECT c, COUNT(*) FROM t GROUP BY c", 0},                         // never analyzed
		{"SELECT a, c, COUNT(*) FROM t GROUP BY a, c", 0},                   // one key never analyzed
		{"SELECT u.b, COUNT(*) FROM t JOIN u ON t.a = u.a GROUP BY u.b", 0}, // no statistics
	} {
		got, fallback := est(tc.q)
		want := tc.want
		if want == 0 {
			want = fallback
		}
		if got != want {
			t.Fatalf("%s: estimated %v groups, want %v", tc.q, got, want)
		}
	}
}

// TestPassThroughProjectionIsDropped: a select list that hands on its input
// unchanged — SELECT *, or every column in order under its own name — binds
// to no Project; an alias, a reordering or a subset keeps one, and a point
// read through SELECT * is still a point probe.
func TestPassThroughProjectionIsDropped(t *testing.T) {
	cat := catalog.New()
	if _, err := cat.Create("acct", catalog.Schema{Columns: []catalog.Column{
		{Name: "id", Type: value.Int, PrimaryKey: true},
		{Name: "grp", Type: value.Int},
		{Name: "bal", Type: value.Int},
		{Name: "pad", Type: value.Text},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AddIndex("acct", "pk_acct", "id", true); err != nil {
		t.Fatal(err)
	}
	bind := func(q string) Node {
		t.Helper()
		node, err := BindSelect(cat, sql.MustParse(q).(*sql.Select), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	for _, tc := range []struct {
		q       string
		project bool
	}{
		{"SELECT * FROM acct", false},
		{"SELECT id, grp, bal, pad FROM acct", false},
		{"SELECT * FROM acct WHERE bal > 3", false},
		{"SELECT id AS x, grp, bal, pad FROM acct", true},
		{"SELECT grp, id, bal, pad FROM acct", true},
		{"SELECT id, grp FROM acct", true},
		{"SELECT *, id FROM acct", true},
	} {
		node := bind(tc.q)
		if _, ok := node.(*Project); ok != tc.project {
			t.Errorf("%s: Project at the root is %v, want %v:\n%s", tc.q, ok, tc.project, Explain(node))
		}
	}
	if node := bind("SELECT * FROM acct WHERE id = ?"); !PointProbe(node) {
		t.Fatalf("SELECT * point read is not a point probe:\n%s", Explain(node))
	}
}
