package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"stagedb/internal/plan"
	"stagedb/internal/sql"
	"stagedb/internal/value"
)

// filterTable is one table of the filter-first corpus and the rows it was
// loaded with: the reference evaluates filters on these Go rows, so it never
// touches the record decoder or a scan.
type filterTable struct {
	name, ddl string
	rows      []value.Row
}

// sqlLiteral renders v as a SQL literal.
func sqlLiteral(v value.Value) string {
	switch v.Type() {
	case value.Null:
		return "NULL"
	case value.Text:
		return quote(v.Text())
	case value.Float:
		return strconv.FormatFloat(v.Float(), 'f', -1, 64)
	case value.Bool:
		if v.Bool() {
			return "TRUE"
		}
		return "FALSE"
	}
	return lit(int(v.Int()))
}

// filterTables builds the corpus: pre has a fixed-width prefix of six
// columns (INT, FLOAT, BOOL) with NULLs in all but the key, then a TEXT;
// txt starts with a TEXT, so its INTs follow a variable-width column.
func filterTables(rng *rand.Rand) []*filterTable {
	maybe := func(odds int, v value.Value) value.Value {
		if rng.Intn(odds) == 0 {
			return value.Value{}
		}
		return v
	}
	pre := &filterTable{name: "pre", ddl: "CREATE TABLE pre (id INT PRIMARY KEY, a INT, b FLOAT, c BOOL, v INT, k INT, s TEXT)"}
	txt := &filterTable{name: "txt", ddl: "CREATE TABLE txt (s TEXT, id INT PRIMARY KEY, v INT, k INT)"}
	for id := 0; id < 700; id++ {
		pre.rows = append(pre.rows, value.Row{
			value.NewInt(int64(id)),
			maybe(5, value.NewInt(int64(rng.Intn(50)-25))),
			maybe(6, value.NewFloat(float64(rng.Intn(16))/8)),
			maybe(7, value.NewBool(rng.Intn(2) == 0)),
			maybe(8, value.NewInt(int64(rng.Intn(8)))),
			maybe(9, value.NewInt(int64(rng.Intn(8)))),
			maybe(10, value.NewText(strings.Repeat("p", rng.Intn(200)))),
		})
		txt.rows = append(txt.rows, value.Row{
			maybe(6, value.NewText("x"+strconv.Itoa(rng.Intn(3000)))),
			value.NewInt(int64(id)),
			maybe(7, value.NewInt(int64(rng.Intn(20)))),
			maybe(7, value.NewInt(int64(rng.Intn(6)))),
		})
	}
	return []*filterTable{pre, txt}
}

// load creates the tables on a fresh session of db and inserts their rows.
func loadFilterTables(t *testing.T, db *DB, tables []*filterTable) {
	t.Helper()
	s := db.NewSession()
	for _, tb := range tables {
		mustExec(t, s, tb.ddl)
		for start := 0; start < len(tb.rows); start += 100 {
			var b strings.Builder
			fmt.Fprintf(&b, "INSERT INTO %s VALUES ", tb.name)
			for i, row := range tb.rows[start:min(start+100, len(tb.rows))] {
				lits := make([]string, len(row))
				for c, v := range row {
					lits[c] = sqlLiteral(v)
				}
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString("(" + strings.Join(lits, ", ") + ")")
			}
			mustExec(t, s, b.String())
		}
	}
}

// filterRef computes q — SELECT <columns> FROM <table> WHERE <filter>
// [LIMIT n] — over rows the way a full decode followed by the filter
// would: the WHERE clause bound against the table and compiled, run on each
// full row, and the selected columns projected. It returns the rendered
// rows, sorted, and the LIMIT (-1: none).
func filterRef(t *testing.T, db *DB, rows []value.Row, q string) ([]string, int) {
	t.Helper()
	sel := sql.MustParse(q).(*sql.Select)
	tbl, err := db.cat.Get(sel.From[0].Name())
	if err != nil {
		t.Fatal(err)
	}
	pred, err := plan.BindTableExpr(tbl, sel.Where)
	if err != nil {
		t.Fatal(err)
	}
	match := plan.CompilePredicate(pred)
	var out []value.Row
	for _, row := range rows {
		ok, err := match(row)
		if err != nil {
			t.Fatalf("%s: reference filter: %v", q, err)
		}
		if !ok {
			continue
		}
		proj := make(value.Row, len(sel.Items))
		for i, it := range sel.Items {
			proj[i] = row[tbl.Schema.ColumnIndex(it.Expr.(*sql.ColumnRef).Name)]
		}
		out = append(out, proj)
	}
	return sortedRows(out), sel.Limit
}

// scanFilters reports the filters the plan of q pushed into its scans, and
// whether the scan is an index scan.
func scanFilters(t *testing.T, db *DB, q string) (filters int, index bool) {
	t.Helper()
	node, err := db.Plan(sql.MustParse(q).(*sql.Select))
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		switch x := n.(type) {
		case *plan.SeqScan:
			if x.Filter != nil {
				filters++
			}
		case *plan.IndexScan:
			index = true
			if x.Filter != nil {
				filters++
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(node)
	return filters, index
}

// checkAgainst compares a result with the reference: equal multisets, or
// under a LIMIT the right count of rows drawn from the reference.
func checkAgainst(got, want []string, limit int) string {
	if limit < 0 {
		return diffRows(got, want)
	}
	if len(got) != min(limit, len(want)) {
		return fmt.Sprintf("%d rows under LIMIT %d, want %d", len(got), limit, min(limit, len(want)))
	}
	left := slices.Clone(want)
	for _, r := range got {
		i := slices.Index(left, r)
		if i < 0 {
			return fmt.Sprintf("row %s is not in the reference", r)
		}
		left = slices.Delete(left, i, i+1)
	}
	return ""
}

// TestPruneFilterFirstScans: sequential and index scans that evaluate their
// pushed-down filter on a probe decode of the filter's columns, and decode
// the output columns only for rows that pass, return what a full decode
// followed by the filter returns — computed in the test from the rows it
// loaded — under the staged engine (shared scans on and off) and the
// threaded one: with NULLs inside the fixed-width prefix, a TEXT column
// ahead of the INTs, filters on columns the projection drops, and LIMIT.
// A scan whose filter rejects every record takes no exchange page.
func TestPruneFilterFirstScans(t *testing.T) {
	db := NewDB(Config{PageRows: 16})
	tables := filterTables(rand.New(rand.NewSource(40)))
	loadFilterTables(t, db, tables)
	rowsOf := map[string][]value.Row{"pre": tables[0].rows, "txt": tables[1].rows}
	queries := []struct {
		table, q string
		index    bool
	}{
		{"pre", "SELECT id, s FROM pre WHERE v > 3", false},
		{"pre", "SELECT a, b, c FROM pre WHERE k % 3 = 1 OR a IS NULL", false},
		{"pre", "SELECT s FROM pre WHERE c AND b >= 1.0 AND v + k < 9", false},
		{"pre", "SELECT s, k FROM pre WHERE id >= 20 AND id < 600 AND v <> 2", true},
		{"pre", "SELECT id FROM pre WHERE b > 0.5 LIMIT 7", false},
		{"pre", "SELECT a FROM pre WHERE id > 100 AND a IS NOT NULL LIMIT 5", true},
		{"txt", "SELECT s FROM txt WHERE v < 10 AND k > 2", false},
		{"txt", "SELECT id, v FROM txt WHERE id > 5 AND s LIKE 'x1%'", true},
		{"txt", "SELECT k FROM txt WHERE s IS NULL OR v IS NULL", false},
		{"txt", "SELECT s FROM txt WHERE id < 300 AND v > 1 LIMIT 5", true},
	}
	fronts := map[string]*Staged{
		"staged":          NewStaged(db, StagedConfig{}),
		"staged-unshared": NewStaged(db, StagedConfig{DisableSharedScans: true}),
		"threaded":        NewThreaded(db, 2),
	}
	for _, f := range fronts {
		defer f.Close()
	}
	// A record the filter rejects is never carved into a page: a scan whose
	// filter rejects every record takes no exchange page at all.
	for _, q := range []string{"SELECT id, s FROM pre WHERE v > 100", "SELECT s FROM txt WHERE id > 5 AND k > 100"} {
		for name, f := range fronts {
			before := db.PagePool().Stats()
			res, err := submitSQL(t, f, db.NewSession(), q)
			if err != nil || len(res.Rows) != 0 {
				t.Fatalf("%s %s: %v, %v; want no rows", name, q, res, err)
			}
			after := db.PagePool().Stats()
			if gets := after.Hits + after.Misses - before.Hits - before.Misses; gets != 0 {
				t.Errorf("%s %s: rejecting every record took %d exchange pages", name, q, gets)
			}
		}
	}
	for _, c := range queries {
		if filters, index := scanFilters(t, db, c.q); filters != 1 || index != c.index {
			t.Fatalf("%s: %d scan filters, index scan %v; want 1 and %v", c.q, filters, index, c.index)
		}
		want, limit := filterRef(t, db, rowsOf[c.table], c.q)
		if len(want) == 0 {
			t.Fatalf("%s: the reference returns no rows", c.q)
		}
		for name, f := range fronts {
			res, err := submitSQL(t, f, db.NewSession(), c.q)
			if err != nil {
				t.Fatalf("%s %s: %v", name, c.q, err)
			}
			if d := checkAgainst(sortedRows(res.Rows), want, limit); d != "" {
				t.Errorf("%s %s: %s", name, c.q, d)
			}
		}
	}
}

// TestPruneFilterErrorOnInvisibleVersion: a filter that fails to evaluate
// (division by zero) on a version the scan's snapshot cannot see does not
// fail the scan, on a sequential or an index scan, staged or threaded; once
// a snapshot sees that version, the same query fails.
func TestPruneFilterErrorOnInvisibleVersion(t *testing.T) {
	db := NewDB(Config{PageRows: 4})
	setup := db.NewSession()
	mustExec(t, setup, "CREATE TABLE e (id INT PRIMARY KEY, v INT, k INT)")
	mustExec(t, setup, "INSERT INTO e VALUES (1, 5, 1), (2, 7, 2), (3, 9, 3), (4, 2, 4), (5, 6, 1)")
	queries := []string{
		"SELECT id FROM e WHERE 10 / (v - k) > 1",
		"SELECT id FROM e WHERE id >= 2 AND 10 / (v - k) > 1",
	}
	want := []string{"(1)", "(2)", "(5)"}
	for name, f := range map[string]*Staged{"staged": NewStaged(db, StagedConfig{}), "threaded": NewThreaded(db, 2)} {
		defer f.Close()
		t.Run(name, func(t *testing.T) {
			mustExec(t, setup, "UPDATE e SET k = 0 WHERE k = v")
			reader := db.NewSession()
			if _, err := submitSQL(t, f, reader, "BEGIN"); err != nil {
				t.Fatal(err)
			}
			// A version with v = k, committed after the reader's snapshot.
			mustExec(t, setup, "UPDATE e SET k = v WHERE id = 3")
			for _, q := range queries {
				res, err := submitSQL(t, f, reader, q)
				if err != nil {
					t.Fatalf("%s: the invisible version failed the scan: %v", q, err)
				}
				w := want
				if strings.Contains(q, "id >= 2") {
					w = want[1:]
				}
				if d := diffRows(sortedRows(res.Rows), w); d != "" {
					t.Fatalf("%s: %s", q, d)
				}
			}
			if _, err := submitSQL(t, f, reader, "COMMIT"); err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				if _, err := submitSQL(t, f, db.NewSession(), q); err == nil || !strings.Contains(err.Error(), "division by zero") {
					t.Fatalf("%s on a snapshot that sees v = k: err %v, want division by zero", q, err)
				}
			}
		})
	}
}
