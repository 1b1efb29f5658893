package plan

import (
	"testing"

	"stagedb/internal/sql"
	"stagedb/internal/value"
)

// findIndexScan returns the plan's IndexScan, or nil.
func findIndexScan(n Node) *IndexScan {
	if s, ok := n.(*IndexScan); ok {
		return s
	}
	for _, c := range n.Children() {
		if s := findIndexScan(c); s != nil {
			return s
		}
	}
	return nil
}

// TestPointProbe: only a single-key range over a unique index, under
// row-wise wrappers, is a point probe — before and after Substitute, whose
// two bound sides are distinct Consts compared by value.
func TestPointProbe(t *testing.T) {
	cat := paramCatalog(t)
	if _, err := cat.AddIndex("t", "ix_v", "v", false); err != nil {
		t.Fatal(err)
	}
	tbl, err := cat.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Create("u", tbl.Schema); err != nil {
		t.Fatal(err)
	}
	bind := func(q string) Node {
		t.Helper()
		node, err := BindSelect(cat, sql.MustParse(q).(*sql.Select), Options{})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return node
	}
	subst := func(q string, args ...value.Value) Node {
		t.Helper()
		node, err := Substitute(bind(q), args)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return node
	}
	i := value.NewInt
	cases := []struct {
		name string
		node Node
		want bool
	}{
		{"unique = const", bind("SELECT v FROM t WHERE id = 7"), true},
		{"unique = const, reversed", bind("SELECT v FROM t WHERE 7 = id"), true},
		{"unique = ?", bind("SELECT v FROM t WHERE id = ?"), true},
		{"unique = ? substituted", subst("SELECT v FROM t WHERE id = ?", i(7)), true},
		{"residual filter on the scan", subst("SELECT v FROM t WHERE id = ? AND v > ?", i(7), i(1)), true},
		{"BETWEEN ? AND ? generic", bind("SELECT v FROM t WHERE id BETWEEN ? AND ?"), false},
		{"BETWEEN bound equal", subst("SELECT v FROM t WHERE id BETWEEN ? AND ?", i(5), i(5)), true},
		{"BETWEEN bound apart", subst("SELECT v FROM t WHERE id BETWEEN ? AND ?", i(5), i(6)), false},
		{"NULL argument", subst("SELECT v FROM t WHERE id = ?", value.NewNull()), false},
		{"non-unique index", bind("SELECT id FROM t WHERE v = 3"), false},
		{"non-unique index, ?", subst("SELECT id FROM t WHERE v = ?", i(3)), false},
		{"range", bind("SELECT v FROM t WHERE id >= 3"), false},
		{"range, ?", subst("SELECT v FROM t WHERE id < ?", i(3)), false},
		{"join", bind("SELECT t.v FROM t JOIN u ON t.id = u.id WHERE t.id = 7"), false},
		{"aggregate", bind("SELECT COUNT(*) FROM t WHERE id = 7"), false},
		{"sort", bind("SELECT v FROM t WHERE id = 7 ORDER BY v"), false},
		{"sequential scan", bind("SELECT v FROM t WHERE name = 'x'"), false},
		{"limit", bind("SELECT v FROM t WHERE id = 7 LIMIT 1"), true},
		{"bare scan", findIndexScan(bind("SELECT v FROM t WHERE id = 7")), true},
		{"filter", &Filter{Child: bind("SELECT v FROM t WHERE id = 7"), Pred: &Const{Val: value.NewBool(true)}}, true},
	}
	for _, c := range cases {
		if got := PointProbe(c.node); got != c.want {
			t.Errorf("%s: PointProbe = %v, want %v\n%s", c.name, got, c.want, Explain(c.node))
		}
	}

	// The case a pointer comparison misses: after Substitute the two bounds
	// are distinct Consts holding equal values.
	scan := findIndexScan(subst("SELECT v FROM t WHERE id = ?", i(7)))
	if scan.LoExpr == scan.HiExpr {
		t.Fatal("Substitute kept one bound expression for both sides; the distinct-Const case is not covered")
	}
}
