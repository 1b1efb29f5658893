package engine

import (
	"strings"
	"testing"

	"stagedb/internal/value"
)

// TestPostAggregateExpressions: the select list, HAVING and ORDER BY above
// a GROUP BY take every expression form WHERE takes — IS NULL, IN, LIKE,
// aggregate sort keys — over GROUP BY columns and aggregate calls. Each
// case runs on the staged and the threaded engine, as its literal text, as
// an ad-hoc `?` text (a custom plan, planned with the values) and as an
// explicit statement (the generic plan through plan.Substitute), and is
// checked against rows computed by hand.
func TestPostAggregateExpressions(t *testing.T) {
	// Groups: g=1 {v 10, 20; s apple, banana}, g=2 {v 5; s cherry},
	// g=3 {v NULL ×3; s blue, berry, avocado}.
	const load = `INSERT INTO pa VALUES (1, 1, 10, 'apple'), (2, 1, 20, 'banana'),
		(3, 2, 5, 'cherry'), (4, 3, NULL, 'blue'), (5, 3, NULL, 'berry'), (6, 3, NULL, 'avocado')`
	cases := []struct {
		literal string
		q       string // the same shape with a `?`
		args    []value.Value
		want    string // rows as "col|col", one per line
	}{
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
	}
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
			for _, c := range cases {
				res, err := submitSQL(t, f, sess, c.literal)
				if err != nil {
					t.Errorf("literal: %s: %v", c.literal, err)
				} else if got := render(res); got != c.want {
					t.Errorf("literal: %s:\n%s\nwant\n%s", c.literal, got, c.want)
				}
				for _, generic := range []bool{false, true} {
					res, err := runBound(t, f, sess, c.q, generic, c.args...)
					if err != nil {
						t.Errorf("generic=%v: %s %v: %v", generic, c.q, c.args, err)
					} else if got := render(res); got != c.want {
						t.Errorf("generic=%v: %s %v:\n%s\nwant\n%s", generic, c.q, c.args, got, c.want)
					}
				}
			}
		})
	}
}
