package engine

import (
	"fmt"
	"strings"
	"testing"

	"stagedb/internal/value"
)

// shapeCase is one query shape of runShapes: its literal text, the same
// shape with `?`s and their arguments, and its rows as "col|col", one per
// line.
type shapeCase struct {
	literal string
	q       string
	args    []value.Value
	want    string
}

// TestPostAggregateExpressions: the select list, HAVING and ORDER BY above
// a GROUP BY take every expression form WHERE takes — IS NULL, IN, LIKE,
// aggregate sort keys — over GROUP BY columns and aggregate calls.
func TestPostAggregateExpressions(t *testing.T) {
	runShapes(t, false, []shapeCase{
		{"SELECT g, COUNT(*) FROM pa GROUP BY g HAVING MAX(v) IS NOT NULL ORDER BY g",
			"SELECT g, COUNT(*) FROM pa GROUP BY g HAVING MAX(v) IS NOT NULL AND COUNT(*) >= ? ORDER BY g",
			[]value.Value{value.NewInt(1)},
			"1|2\n2|1"},
		{"SELECT g, COUNT(*) FROM pa GROUP BY g HAVING COUNT(*) IN (1, 2) ORDER BY g",
			"SELECT g, COUNT(*) FROM pa GROUP BY g HAVING COUNT(*) IN (?, 2) ORDER BY g",
			[]value.Value{value.NewInt(1)},
			"1|2\n2|1"},
		{"SELECT g, COUNT(*) FROM pa GROUP BY g HAVING MAX(s) LIKE 'b%' ORDER BY g",
			"SELECT g, COUNT(*) FROM pa GROUP BY g HAVING MAX(s) LIKE ? ORDER BY g",
			[]value.Value{value.NewText("b%")},
			"1|2\n3|3"},
		{"SELECT g, COUNT(*) IN (1, 3) FROM pa GROUP BY g ORDER BY g",
			"SELECT g, COUNT(*) IN (?, 3) FROM pa GROUP BY g ORDER BY g",
			[]value.Value{value.NewInt(1)},
			"1|FALSE\n2|TRUE\n3|TRUE"},
		{"SELECT g, COUNT(*) FROM pa GROUP BY g ORDER BY COUNT(*) DESC",
			"SELECT g, COUNT(*) FROM pa WHERE id > ? GROUP BY g ORDER BY COUNT(*) DESC",
			[]value.Value{value.NewInt(0)},
			"3|3\n1|2\n2|1"},
		{"SELECT g, SUM(v) FROM pa GROUP BY g ORDER BY SUM(v)",
			"SELECT g, SUM(v) FROM pa GROUP BY g ORDER BY SUM(v) * ?",
			[]value.Value{value.NewInt(1)},
			"3|NULL\n2|5\n1|30"},
		{"SELECT g, COUNT(*) FROM pa GROUP BY g HAVING COUNT(*) IN (1, 3) ORDER BY g",
			"SELECT g, COUNT(*) FROM pa GROUP BY g HAVING COUNT(*) IN (?, ?) ORDER BY g",
			[]value.Value{value.NewInt(1), value.NewInt(3)},
			"2|1\n3|3"},
	})
}

// TestOrderByMixedKeysAndColumnNames: an ORDER BY may mix select-list keys
// (an alias included) with keys outside the select list, and an unaliased
// qualified column is named by its column above a GROUP BY as below one.
func TestOrderByMixedKeysAndColumnNames(t *testing.T) {
	const byG = "3|'blue'\n3|'berry'\n3|'avocado'\n2|'cherry'\n1|'apple'\n1|'banana'"
	runShapes(t, true, []shapeCase{
		{"SELECT v FROM pa ORDER BY v, id",
			"SELECT v FROM pa WHERE id > ? ORDER BY v, id",
			[]value.Value{value.NewInt(0)},
			"v\nNULL\nNULL\nNULL\n5\n10\n20"},
		{"SELECT g, s FROM pa ORDER BY g DESC, id",
			"SELECT g, s FROM pa WHERE id > ? ORDER BY g DESC, id",
			[]value.Value{value.NewInt(0)}, "g|s\n" + byG},
		{"SELECT g AS k, s FROM pa ORDER BY k DESC, id",
			"SELECT g AS k, s FROM pa WHERE id > ? ORDER BY k DESC, id",
			[]value.Value{value.NewInt(0)}, "k|s\n" + byG},
		{"SELECT g, COUNT(*) FROM pa GROUP BY g ORDER BY g, COUNT(*)",
			"SELECT g, COUNT(*) FROM pa WHERE id > ? GROUP BY g ORDER BY g, COUNT(*)",
			[]value.Value{value.NewInt(0)},
			"g|COUNT(*)\n1|2\n2|1\n3|3"},
		{"SELECT g, COUNT(*) FROM pa GROUP BY g ORDER BY COUNT(*), g",
			"SELECT g, COUNT(*) FROM pa WHERE id > ? GROUP BY g ORDER BY COUNT(*), g",
			[]value.Value{value.NewInt(0)},
			"g|COUNT(*)\n2|1\n1|2\n3|3"},
		{"SELECT pa.g, COUNT(*) FROM pa GROUP BY pa.g ORDER BY pa.g",
			"SELECT pa.g, COUNT(*) FROM pa WHERE id > ? GROUP BY pa.g ORDER BY pa.g",
			[]value.Value{value.NewInt(0)},
			"g|COUNT(*)\n1|2\n2|1\n3|3"},
		{"SELECT pa.g FROM pa WHERE id < 4 ORDER BY pa.g, id",
			"SELECT pa.g FROM pa WHERE id < ? ORDER BY pa.g, id",
			[]value.Value{value.NewInt(4)},
			"g\n1\n1\n2"},
	})
}

// TestOrderByPosition: a bare integer ORDER BY key names an output column,
// `*` expanded, alone or next to keys outside the select list; an integer
// inside an expression, or a bound `?`, stays a constant.
func TestOrderByPosition(t *testing.T) {
	runShapes(t, true, []shapeCase{
		{"SELECT id, s FROM pa ORDER BY 2",
			"SELECT id, s FROM pa WHERE id > ? ORDER BY 2",
			[]value.Value{value.NewInt(0)},
			"id|s\n1|'apple'\n6|'avocado'\n2|'banana'\n5|'berry'\n4|'blue'\n3|'cherry'"},
		{"SELECT id, v FROM pa ORDER BY 1 DESC",
			"SELECT id, v FROM pa WHERE id > ? ORDER BY 1 DESC",
			[]value.Value{value.NewInt(0)},
			"id|v\n6|NULL\n5|NULL\n4|NULL\n3|5\n2|20\n1|10"},
		{"SELECT * FROM pa WHERE id < 4 ORDER BY 4 DESC",
			"SELECT * FROM pa WHERE id < ? ORDER BY 4 DESC",
			[]value.Value{value.NewInt(4)},
			"id|g|v|s\n3|2|5|'cherry'\n2|1|20|'banana'\n1|1|10|'apple'"},
		{"SELECT s FROM pa ORDER BY g DESC, 1",
			"SELECT s FROM pa WHERE id > ? ORDER BY g DESC, 1",
			[]value.Value{value.NewInt(0)},
			"s\n'avocado'\n'berry'\n'blue'\n'cherry'\n'apple'\n'banana'"},
		{"SELECT g, COUNT(*) FROM pa GROUP BY g ORDER BY 2 DESC",
			"SELECT g, COUNT(*) FROM pa WHERE id > ? GROUP BY g ORDER BY 2 DESC",
			[]value.Value{value.NewInt(0)},
			"g|COUNT(*)\n3|3\n1|2\n2|1"},
		{"SELECT id FROM pa ORDER BY 0 - id",
			"SELECT id FROM pa ORDER BY ?, 0 - id",
			[]value.Value{value.NewInt(1)},
			"id\n6\n5\n4\n3\n2\n1"},
	})
	for _, mode := range []string{"staged", "threaded"} {
		db := NewDB(Config{})
		mustExec(t, db.NewSession(), "CREATE TABLE pa (id INT PRIMARY KEY, g INT, v INT, s TEXT)")
		f := NewStaged(db, StagedConfig{})
		if mode == "threaded" {
			f = NewThreaded(db, 0)
		}
		for _, q := range []string{"SELECT id FROM pa ORDER BY 2", "SELECT id FROM pa ORDER BY 0", "SELECT * FROM pa ORDER BY 5"} {
			_, err := submitSQL(t, f, db.NewSession(), q)
			if err == nil || !strings.Contains(err.Error(), "is not in select list") {
				t.Errorf("%s: %s: want an out-of-range position refused, got %v", mode, q, err)
			}
		}
		f.Close()
	}
}

// runShapes runs each case on the staged and the threaded engine, as its
// literal text, as an ad-hoc `?` text (a custom plan, planned with the
// values) and as an explicit statement (the generic plan through
// plan.Substitute), and checks it against the rows computed by hand over
// the pa table; with header, want's first line is the column names.
func runShapes(t *testing.T, header bool, cases []shapeCase) {
	t.Helper()
	// Groups: g=1 {v 10, 20; s apple, banana}, g=2 {v 5; s cherry},
	// g=3 {v NULL ×3; s blue, berry, avocado}.
	const load = `INSERT INTO pa VALUES (1, 1, 10, 'apple'), (2, 1, 20, 'banana'),
		(3, 2, 5, 'cherry'), (4, 3, NULL, 'blue'), (5, 3, NULL, 'berry'), (6, 3, NULL, 'avocado')`
	render := func(res *Result) string {
		lines := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = v.String()
			}
			lines[i] = strings.Join(cells, "|")
		}
		return strings.Join(lines, "\n")
	}
	for _, mode := range []string{"staged", "threaded"} {
		t.Run(mode, func(t *testing.T) {
			db := NewDB(Config{})
			s := db.NewSession()
			mustExec(t, s, "CREATE TABLE pa (id INT PRIMARY KEY, g INT, v INT, s TEXT)")
			mustExec(t, s, load)
			f := NewStaged(db, StagedConfig{})
			if mode == "threaded" {
				f = NewThreaded(db, 0)
			}
			defer f.Close()
			sess := db.NewSession()
			check := func(c shapeCase, how, q string, res *Result, err error) {
				t.Helper()
				if err != nil {
					t.Errorf("%s: %s: %v", how, q, err)
					return
				}
				got := render(res)
				if header {
					got = strings.Join(res.Columns, "|") + "\n" + got
				}
				if got != c.want {
					t.Errorf("%s: %s:\n%s\nwant\n%s", how, q, got, c.want)
				}
			}
			for _, c := range cases {
				res, err := submitSQL(t, f, sess, c.literal)
				check(c, "literal", c.literal, res, err)
				for _, generic := range []bool{false, true} {
					res, err := runBound(t, f, sess, c.q, generic, c.args...)
					check(c, fmt.Sprintf("generic=%v %v", generic, c.args), c.q, res, err)
				}
			}
		})
	}
}
