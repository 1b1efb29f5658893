package plan

import (
	"strings"
	"testing"

	"stagedb/internal/catalog"
	"stagedb/internal/sql"
	"stagedb/internal/value"
)

// pruneCatalog holds t(id PK, v, name, pad) and u(id PK, v, w): both tables
// have an `id` and a `v`, so a join must keep the sides apart.
func pruneCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	mk := func(name string, cols ...catalog.Column) {
		if _, err := cat.Create(name, catalog.Schema{Columns: cols}); err != nil {
			t.Fatal(err)
		}
		if _, err := cat.AddIndex(name, "pk_"+name, "id", true); err != nil {
			t.Fatal(err)
		}
	}
	mk("t",
		catalog.Column{Name: "id", Type: value.Int, PrimaryKey: true},
		catalog.Column{Name: "v", Type: value.Int},
		catalog.Column{Name: "name", Type: value.Text},
		catalog.Column{Name: "pad", Type: value.Text})
	mk("u",
		catalog.Column{Name: "id", Type: value.Int, PrimaryKey: true},
		catalog.Column{Name: "v", Type: value.Int},
		catalog.Column{Name: "w", Type: value.Float})
	return cat
}

// scanColumns returns, per scan binding, the decoded column names in table
// order, "*" for a scan that decodes everything, plus the scan's node kind.
func scanColumns(n Node) map[string]string {
	out := map[string]string{}
	var walk func(Node)
	walk = func(n Node) {
		var tbl *catalog.Table
		var binding, kind string
		var cols []bool
		switch x := n.(type) {
		case *SeqScan:
			tbl, binding, kind, cols = x.Table, x.Binding, "seq", x.Cols
		case *IndexScan:
			tbl, binding, kind, cols = x.Table, x.Binding, "index", x.Cols
		}
		if tbl != nil {
			names := "*"
			if cols != nil {
				var list []string
				for i, c := range cols {
					if c {
						list = append(list, tbl.Schema.Columns[i].Name)
					}
				}
				names = strings.Join(list, ",")
			}
			out[binding] = kind + ":" + names
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// TestPruneScansPerNodeKind pins the required-columns pass one plan shape at
// a time: what each scan decodes is exactly what the plan above it (and the
// scan's own filter) reads.
func TestPruneScansPerNodeKind(t *testing.T) {
	cases := []struct {
		name, sql string
		want      map[string]string
	}{
		{"select star decodes all", "SELECT * FROM t", map[string]string{"t": "seq:*"}},
		{"star with filter decodes all", "SELECT * FROM t WHERE v > 1", map[string]string{"t": "seq:*"}},
		{"count star decodes nothing", "SELECT COUNT(*) FROM t", map[string]string{"t": "seq:"}},
		{"count star keeps the pushed-down filter", "SELECT COUNT(*) FROM t WHERE v > 3", map[string]string{"t": "seq:v"}},
		{"project", "SELECT name FROM t", map[string]string{"t": "seq:name"}},
		{"project expression and filter", "SELECT v + 1 FROM t WHERE name LIKE 'a%'", map[string]string{"t": "seq:v,name"}},
		{"order by unprojected column", "SELECT name FROM t ORDER BY v", map[string]string{"t": "seq:v,name"}},
		{"order by projected alias", "SELECT v AS x FROM t ORDER BY x", map[string]string{"t": "seq:v"}},
		{"topn through project", "SELECT name FROM t ORDER BY v LIMIT 3", map[string]string{"t": "seq:v,name"}},
		{"limit", "SELECT v FROM t LIMIT 5", map[string]string{"t": "seq:v"}},
		{"distinct over project", "SELECT DISTINCT name FROM t", map[string]string{"t": "seq:name"}},
		{"group by column", "SELECT name, SUM(v) FROM t GROUP BY name", map[string]string{"t": "seq:v,name"}},
		{"group by expression", "SELECT v % 10, COUNT(*) FROM t GROUP BY v % 10", map[string]string{"t": "seq:v"}},
		{"having", "SELECT name FROM t GROUP BY name HAVING MAX(v) > 2", map[string]string{"t": "seq:v,name"}},
		{"in, between, is null", "SELECT id FROM t WHERE v IN (1, 2) AND name IS NOT NULL AND v BETWEEN 0 AND 9",
			map[string]string{"t": "seq:id,v,name"}},
		{"join: each side its own columns, shared names kept apart",
			"SELECT t.name, u.w FROM t JOIN u ON t.v = u.id",
			map[string]string{"t": "seq:v,name", "u": "seq:id,w"}},
		{"join residual and side filters",
			"SELECT t.id FROM t JOIN u ON t.id = u.id WHERE t.v < u.v AND u.w > 0.5",
			map[string]string{"t": "seq:id,v", "u": "seq:*"}}, // u reads id, v and w: all it has
		{"join under aggregate", "SELECT COUNT(*), SUM(u.w) FROM t JOIN u ON t.v = u.v WHERE t.id >= 0",
			map[string]string{"t": "index:v", "u": "seq:v,w"}},
		{"join star decodes both sides fully", "SELECT * FROM t JOIN u ON t.id = u.id",
			map[string]string{"t": "seq:*", "u": "seq:*"}},
		{"index scan: key column not decoded unless read", "SELECT v FROM t WHERE id = 7", map[string]string{"t": "index:v"}},
		{"index scan with residual filter", "SELECT v FROM t WHERE id > 7 AND name = 'x'", map[string]string{"t": "index:id,v,name"}},
		{"parameters are not columns", "SELECT v FROM t WHERE id = ? AND name = ?", map[string]string{"t": "index:v,name"}},
	}
	cat := pruneCatalog(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			node, err := BindSelect(cat, sql.MustParse(c.sql).(*sql.Select), Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := scanColumns(node)
			if len(got) != len(c.want) {
				t.Fatalf("scans %v, want %v\n%s", got, c.want, Explain(node))
			}
			for b, w := range c.want {
				if got[b] != w {
					t.Errorf("scan %s decodes %q, want %q\n%s", b, got[b], w, Explain(node))
				}
			}
		})
	}
}

// TestPruneRidesThroughSubstitute: the prepared path stamps a private copy
// of the cached plan per execution; the column sets must come along, and the
// cached plan must keep its own.
func TestPruneRidesThroughSubstitute(t *testing.T) {
	cat := pruneCatalog(t)
	for _, q := range []string{
		"SELECT v FROM t WHERE id = ?",   // index bound parameter
		"SELECT name FROM t WHERE v > ?", // seq scan filter parameter
		"SELECT t.name, COUNT(*) FROM t JOIN u ON t.v = u.v WHERE u.w > ? GROUP BY t.name", // below a join
	} {
		node, err := BindSelect(cat, sql.MustParse(q).(*sql.Select), Options{})
		if err != nil {
			t.Fatal(err)
		}
		before := scanColumns(node)
		bound, err := Substitute(node, []value.Value{value.NewInt(3)})
		if err != nil {
			t.Fatal(err)
		}
		if bound == node {
			t.Fatalf("%s: Substitute returned the cached plan", q)
		}
		after := scanColumns(bound)
		for b, w := range before {
			if strings.HasSuffix(w, ":*") {
				t.Errorf("%s: scan %s prunes nothing; the case proves nothing", q, b)
			}
			if after[b] != w {
				t.Errorf("%s: scan %s decodes %q after Substitute, %q before", q, b, after[b], w)
			}
		}
		if again := scanColumns(node); len(again) != len(before) {
			t.Errorf("%s: Substitute changed the cached plan's scans", q)
		}
	}
}

// TestPruneUnknownWidensToAll: what the pass cannot prove it does not prune.
func TestPruneUnknownWidensToAll(t *testing.T) {
	tbl := testTable()
	scan := func() *SeqScan { return &SeqScan{Table: tbl, Binding: "t", out: scanSchema(tbl, "t")} }

	// An expression kind markCols does not know.
	s := scan()
	pruneScans(&Project{Child: s, Exprs: []Expr{opaqueExpr{}}}, nil)
	if s.Cols != nil {
		t.Fatalf("unknown expression kind: Cols = %v, want nil (all)", s.Cols)
	}
	// A node kind pruneScans does not know.
	s = scan()
	pruneScans(opaqueNode{child: &Project{Child: opaqueNode{child: s}, Exprs: []Expr{&Column{Idx: 0}}}}, nil)
	if s.Cols != nil {
		t.Fatalf("unknown node kind: Cols = %v, want nil (all)", s.Cols)
	}
	// A column reference outside the child's schema.
	s = scan()
	pruneScans(&Project{Child: s, Exprs: []Expr{&Column{Idx: 9}}}, nil)
	if s.Cols != nil {
		t.Fatalf("out-of-range column: Cols = %v, want nil (all)", s.Cols)
	}
	// The control: the same shape with a known expression does prune.
	s = scan()
	pruneScans(&Project{Child: s, Exprs: []Expr{&Column{Idx: 1}}}, nil)
	if len(s.Cols) != 3 || s.Cols[0] || !s.Cols[1] || s.Cols[2] {
		t.Fatalf("control: Cols = %v, want [false true false]", s.Cols)
	}
}

type opaqueExpr struct{}

func (opaqueExpr) Eval(value.Row) (value.Value, error) { return value.Value{}, nil }
func (opaqueExpr) Type() value.Type                    { return value.Null }
func (opaqueExpr) String() string                      { return "opaque" }

type opaqueNode struct{ child Node }

func (n opaqueNode) Schema() Schema   { return n.child.Schema() }
func (n opaqueNode) Children() []Node { return []Node{n.child} }
func (n opaqueNode) Rows() float64    { return n.child.Rows() }
func (n opaqueNode) String() string   { return "Opaque" }

// TestExplainShowsPrunedColumns: EXPLAIN names the decoded subset on a scan
// that prunes, and says nothing on one that decodes every column.
func TestExplainShowsPrunedColumns(t *testing.T) {
	cat := pruneCatalog(t)
	explain := func(q string) string {
		node, err := BindSelect(cat, sql.MustParse(q).(*sql.Select), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return Explain(node)
	}
	if got := explain("SELECT name FROM t WHERE v > 1"); !strings.Contains(got, "cols=[v name]") {
		t.Fatalf("pruned seq scan should print cols=[v name]:\n%s", got)
	}
	if got := explain("SELECT v FROM t WHERE id = 1"); !strings.Contains(got, "IndexScan") || !strings.Contains(got, "cols=[v]") {
		t.Fatalf("pruned index scan should print cols=[v]:\n%s", got)
	}
	if got := explain("SELECT COUNT(*) FROM t"); !strings.Contains(got, "cols=[]") {
		t.Fatalf("COUNT(*) scan should print cols=[]:\n%s", got)
	}
	if got := explain("SELECT * FROM t"); strings.Contains(got, "cols=") {
		t.Fatalf("a scan decoding everything should print no cols=:\n%s", got)
	}
}
