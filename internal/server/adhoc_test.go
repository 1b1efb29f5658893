package server

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"stagedb"
)

// TestAdHocPointReadItineraryWire: a `?` point read sent over the wire
// takes the same short itinerary as an embedded one — execute and
// disconnect, no connect/parse/optimize, no iscan task — hitting the plan
// cache every time.
func TestAdHocPointReadItineraryWire(t *testing.T) {
	srv, db := startServer(t, stagedb.Options{}, Options{})
	c := dial(t, srv, "")
	mustExec(t, c, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	for i := 0; i < 100; i++ {
		mustExec(t, c, "INSERT INTO acct VALUES (?, ?)", i, i*10)
	}
	const q = "SELECT bal FROM acct WHERE id = ?"
	mustExec(t, c, q, 0) // warm-up: caches the text
	arrivals := func() map[string]int64 {
		out := make(map[string]int64)
		for _, s := range srv.Stages() {
			out[s.Name] = s.Enqueued
		}
		return out
	}
	before, hits0 := arrivals(), db.PlanCacheStats().Hits
	const n = 50
	for i := 0; i < n; i++ {
		res := mustExec(t, c, q, i)
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(i*10) {
			t.Fatalf("id %d: %v", i, res.Rows)
		}
	}
	after := arrivals()
	for stage, want := range map[string]int64{"connect": 0, "parse": 0, "optimize": 0, "iscan": 0, "execute": n, "disconnect": n} {
		if got := after[stage] - before[stage]; got != want {
			t.Errorf("%s: %d arrivals over %d wire point reads, want %d", stage, got, n, want)
		}
	}
	if got := db.PlanCacheStats().Hits - hits0; got != n {
		t.Errorf("%d plan-cache hits over %d wire point reads, want %d", got, n, n)
	}
}

// execer is what an embedded stagedb.Conn and a wire client.Conn share.
type execer interface {
	ExecContext(ctx context.Context, sqlText string, args ...any) (*stagedb.Result, error)
}

// adHocCase pairs a `?` text and its arguments with the literal text they
// stand for.
type adHocCase struct {
	text    string
	args    []any
	literal string
}

var adHocCases = []adHocCase{
	{"SELECT bal FROM acct WHERE id = ?", []any{7}, "SELECT bal FROM acct WHERE id = 7"},
	{"SELECT bal FROM acct WHERE id = ?", []any{1000}, "SELECT bal FROM acct WHERE id = 1000"},
	{"SELECT bal FROM acct WHERE id = ?", []any{nil}, "SELECT bal FROM acct WHERE id = NULL"},
	{"SELECT bal + ?, grp FROM acct WHERE id = ? LIMIT 1", []any{1, 8}, "SELECT bal + 1, grp FROM acct WHERE id = 8 LIMIT 1"},
	{"SELECT id FROM acct WHERE id BETWEEN ? AND ? ORDER BY id", []any{5, 5}, "SELECT id FROM acct WHERE id BETWEEN 5 AND 5 ORDER BY id"},
	{"SELECT id FROM acct WHERE id BETWEEN ? AND ? ORDER BY id", []any{5, 9}, "SELECT id FROM acct WHERE id BETWEEN 5 AND 9 ORDER BY id"},
	{"SELECT id, bal FROM acct WHERE bal >= ? ORDER BY id", []any{2500}, "SELECT id, bal FROM acct WHERE bal >= 2500 ORDER BY id"},
	{"SELECT grp, COUNT(*), SUM(bal) FROM acct WHERE id < ? GROUP BY grp ORDER BY grp", []any{200},
		"SELECT grp, COUNT(*), SUM(bal) FROM acct WHERE id < 200 GROUP BY grp ORDER BY grp"},
	{"SELECT grp, COUNT(*) FROM acct GROUP BY grp HAVING COUNT(*) > ? ORDER BY grp", []any{42},
		"SELECT grp, COUNT(*) FROM acct GROUP BY grp HAVING COUNT(*) > 42 ORDER BY grp"},
	{"SELECT grp, SUM(bal) * ? FROM acct GROUP BY grp ORDER BY grp", []any{3},
		"SELECT grp, SUM(bal) * 3 FROM acct GROUP BY grp ORDER BY grp"},
	// No generic plan exists: the select item matches the GROUP BY
	// expression only for one value of `?`.
	{"SELECT grp + ?, COUNT(*) FROM acct WHERE grp = 3 GROUP BY grp + 1", []any{1},
		"SELECT grp + 1, COUNT(*) FROM acct WHERE grp = 3 GROUP BY grp + 1"},
	{"SELECT a.id, b.bal FROM acct a JOIN acct b ON a.grp = b.id WHERE a.id < ? ORDER BY a.id", []any{20},
		"SELECT a.id, b.bal FROM acct a JOIN acct b ON a.grp = b.id WHERE a.id < 20 ORDER BY a.id"},
}

// render prints a result for comparison.
func render(res *stagedb.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v\n", res.Columns)
	for _, r := range res.Rows {
		for _, v := range r {
			sb.WriteString(v.String())
			sb.WriteByte(' ')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// checkAdHoc runs every case both ways on c and compares the results.
func checkAdHoc(t *testing.T, phase, via string, c execer) {
	t.Helper()
	ctx := context.Background()
	for _, k := range adHocCases {
		got, err := c.ExecContext(ctx, k.text, k.args...)
		if err != nil {
			t.Fatalf("%s, %s: %s %v: %v", phase, via, k.text, k.args, err)
		}
		want, err := c.ExecContext(ctx, k.literal)
		if err != nil {
			t.Fatalf("%s, %s: %s: %v", phase, via, k.literal, err)
		}
		if g, w := render(got), render(want); g != w {
			t.Errorf("%s, %s: %s %v\n got %s\nwant %s", phase, via, k.text, k.args, g, w)
		}
	}
}

// TestAdHocMatchesLiteral: a `?` text returns what its literal text
// returns — probe hit, miss and NULL, ranges, aggregates (a `?` above the
// aggregation too, and a text with no generic plan) and joins — on
// both engines, embedded and over the wire, inside a transaction that reads
// its own uncommitted writes, and after CREATE INDEX, ANALYZE and DROP
// TABLE invalidate the cached entries.
func TestAdHocMatchesLiteral(t *testing.T) {
	for name, mode := range map[string]stagedb.Mode{"staged": stagedb.Staged, "threaded": stagedb.Threaded} {
		t.Run(name, func(t *testing.T) {
			srv, db := startServer(t, stagedb.Options{Mode: mode}, Options{})
			conns := []struct {
				via string
				c   execer
			}{{"embedded", db.Conn()}, {"wire", dial(t, srv, "")}}
			ctx := context.Background()
			ddl := func(q string) {
				t.Helper()
				if _, err := db.ExecContext(ctx, q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			load := func(mul int) {
				t.Helper()
				ddl("CREATE TABLE acct (id INT PRIMARY KEY, grp INT, bal INT)")
				var sb strings.Builder
				sb.WriteString("INSERT INTO acct VALUES ")
				for i := 0; i < 300; i++ {
					if i > 0 {
						sb.WriteByte(',')
					}
					fmt.Fprintf(&sb, "(%d, %d, %d)", i, i%7, i*mul)
				}
				ddl(sb.String())
			}
			checkAll := func(phase string) {
				t.Helper()
				for _, cn := range conns {
					checkAdHoc(t, phase, cn.via, cn.c)
				}
			}

			load(10)
			checkAll("initial")

			for _, cn := range conns {
				for _, q := range []string{"BEGIN", "INSERT INTO acct VALUES (1000, 3, 99999)", "UPDATE acct SET bal = 777 WHERE id = 7"} {
					if _, err := cn.c.ExecContext(ctx, q); err != nil {
						t.Fatalf("%s: %s: %v", cn.via, q, err)
					}
				}
				checkAdHoc(t, "own uncommitted writes", cn.via, cn.c)
				res, err := cn.c.ExecContext(ctx, "SELECT bal FROM acct WHERE id = ?", 1000)
				if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 99999 {
					t.Fatalf("%s: the transaction's own insert through `?`: %v, %v", cn.via, res, err)
				}
				if _, err := cn.c.ExecContext(ctx, "ROLLBACK"); err != nil {
					t.Fatal(err)
				}
			}

			inv := db.PlanCacheStats().Invalidations
			ddl("CREATE INDEX ix_bal ON acct (bal)")
			checkAll("after CREATE INDEX")
			if err := db.Analyze("acct"); err != nil {
				t.Fatal(err)
			}
			checkAll("after ANALYZE")
			ddl("DROP TABLE acct")
			load(3)
			checkAll("after DROP TABLE")
			if got := db.PlanCacheStats().Invalidations; got <= inv {
				t.Fatalf("invalidations %d -> %d: DDL and ANALYZE left cached entries valid", inv, got)
			}
		})
	}
}
