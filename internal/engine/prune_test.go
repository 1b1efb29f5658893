package engine

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"stagedb/internal/exec"
	"stagedb/internal/plan"
	"stagedb/internal/sql"
	"stagedb/internal/storage"
	"stagedb/internal/value"
)

// The column-pruning pass has no switch, so it is checked metamorphically.
// For every query of the corpus:
//
//   - the reference is the query's plan with every scan's column set cleared
//     (a test can do that to a plan it owns), run on the plain data A;
//   - B is A with every column the pass calls unread — by every scan of that
//     table in the query — overwritten with junk, distinct from A's value and
//     from NULL;
//   - the query must return the reference's multiset on A and on B, through
//     the staged engine with synchronized scans (the whole corpus in flight
//     at once, so scans with different sets start mid-table), the staged
//     engine with sharing off, and the Volcano driver;
//   - and B with the sets cleared — reading the junk for real — must too: if a
//     column the pass calls unread influenced the result, this run differs.
//
// A wrongly pruned column therefore fails the A runs (NULL where the
// reference had a value); a column that leaks through a shared page fails the
// B runs.

// pruneTables is the corpus schema: the benchmark's five tables, small.
var pruneTables = []struct {
	name, ddl string
	rows      int
	row       func(id int) []string // column literals, in table order
}{
	{"acct", "CREATE TABLE acct (id INT PRIMARY KEY, grp INT, bal INT, pad TEXT)", 400, func(id int) []string {
		return []string{lit(id), lit(id % 16), lit(1000 + id%97), quote("acct-pad-" + lit(id))}
	}},
	{"hist", "CREATE TABLE hist (id INT PRIMARY KEY, acct INT, delta INT)", 50, func(id int) []string {
		return []string{lit(id), lit(id * 7 % 400), lit(id%11 - 5)}
	}},
	{"fact", "CREATE TABLE fact (id INT PRIMARY KEY, grp INT, k INT, val INT, pad TEXT)", 3000, func(id int) []string {
		return []string{lit(id), lit(id % 10), lit(id * 13 % 500), lit(id * 7919 % 1000), quote(strings.Repeat("p", 40) + lit(id))}
	}},
	{"dim", "CREATE TABLE dim (grp INT PRIMARY KEY, name TEXT)", 10, func(id int) []string {
		return []string{lit(id), quote("group-" + lit(id%4))}
	}},
	{"keys", "CREATE TABLE keys (k INT PRIMARY KEY, w INT)", 500, func(id int) []string {
		return []string{lit(id), lit(id%31 + 1)}
	}},
}

func lit(n int) string      { return strconv.Itoa(n) }
func quote(s string) string { return "'" + s + "'" }

// junkLiteral is what B stores in an unread column: unique per row (primary
// keys stay unique), never equal to A's value, never NULL.
func junkLiteral(typ value.Type, id, col int) string {
	if typ == value.Text {
		return quote(fmt.Sprintf("junk-%d-%d", col, id))
	}
	return lit(-1000000 - id*8 - col)
}

// pruneQuery is one corpus entry. ordered marks a query whose ORDER BY is a
// total order: its rows are compared in sequence, not as a multiset — a sort
// key pruned to NULL keeps the multiset and loses the order.
type pruneQuery struct {
	sql     string
	args    []value.Value
	ordered bool
}

// rowsOf renders a result for comparison: in result order for an ordered
// query, sorted otherwise.
func (q pruneQuery) rowsOf(rows []value.Row) []string {
	if !q.ordered {
		return sortedRows(rows)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func ints(vs ...int64) []value.Value {
	out := make([]value.Value, len(vs))
	for i, v := range vs {
		out[i] = value.NewInt(v)
	}
	return out
}

// pruneCorpus: the benchmark's seven SELECT texts (its UPDATE and INSERT are
// checked at the end of the test: DML must keep decoding every column) and
// one query per plan shape the pass has a rule for.
var pruneCorpus = []pruneQuery{
	{sql: "SELECT bal FROM acct WHERE id = ?", args: ints(7)},
	{sql: "SELECT grp, COUNT(*), SUM(val) FROM fact WHERE val > ? GROUP BY grp", args: ints(500)},
	{sql: "SELECT d.name, COUNT(*), SUM(f.val) FROM fact f JOIN dim d ON f.grp = d.grp WHERE f.val > ? GROUP BY d.name", args: ints(300)},
	{sql: "SELECT id, val FROM fact WHERE val < ?", args: ints(200)},
	{sql: "SELECT id, val FROM fact WHERE val >= ? ORDER BY val, id", args: ints(100), ordered: true},
	{sql: "SELECT k, COUNT(*), SUM(val) FROM fact WHERE val >= ? GROUP BY k", args: ints(100)},
	{sql: "SELECT COUNT(*), SUM(w.w) FROM fact f JOIN keys w ON f.k = w.k WHERE f.val >= ?", args: ints(400)},

	{sql: "SELECT * FROM dim"},
	{sql: "SELECT * FROM fact WHERE val = ?", args: ints(77)},
	{sql: "SELECT COUNT(*) FROM fact"},
	{sql: "SELECT COUNT(*) FROM hist"},
	{sql: "SELECT pad FROM acct ORDER BY bal, id", ordered: true},
	{sql: "SELECT id % 10 AS m, pad FROM fact WHERE val < 300 ORDER BY m, pad", ordered: true},
	{sql: "SELECT grp FROM fact ORDER BY id LIMIT 25 OFFSET 5", ordered: true},
	{sql: "SELECT val % 7, COUNT(*), MIN(k) FROM fact GROUP BY val % 7"},
	{sql: "SELECT grp, MAX(val) FROM fact GROUP BY grp HAVING MIN(k) < 3"},
	{sql: "SELECT DISTINCT grp FROM fact WHERE k < ?", args: ints(250)},
	{sql: "SELECT DISTINCT name FROM dim"},
	{sql: "SELECT a.id, h.delta FROM acct a JOIN hist h ON a.id = h.acct WHERE a.grp < h.id"},
	{sql: "SELECT a.grp, f.grp, f.id FROM acct a JOIN fact f ON a.id = f.id WHERE a.bal > ? AND f.val < ?", args: ints(1040, 500)},
	{sql: "SELECT f.id, g.val FROM fact f JOIN fact g ON f.id = g.k WHERE f.val < ?", args: ints(50)},
	{sql: "SELECT bal FROM acct WHERE id > ? AND id < ? AND grp = ?", args: ints(100, 300, 5)},
	{sql: "SELECT id FROM acct WHERE id BETWEEN ? AND ? AND pad LIKE 'acct-pad-1%'", args: ints(1, 399)},
	{sql: "SELECT k FROM fact WHERE val IN (1, 2, 3) AND pad IS NOT NULL"},
}

// loadPruneDB builds the corpus tables, with the (table, column) pairs in
// junk overwritten, and ANALYZEs them.
func loadPruneDB(t *testing.T, junk map[string][]bool) *DB {
	t.Helper()
	db := NewDB(Config{})
	s := db.NewSession()
	for _, tb := range pruneTables {
		mustExec(t, s, tb.ddl)
		tbl, err := db.cat.Get(tb.name)
		if err != nil {
			t.Fatal(err)
		}
		for start := 0; start < tb.rows; start += 200 {
			var b strings.Builder
			fmt.Fprintf(&b, "INSERT INTO %s VALUES ", tb.name)
			for id := start; id < start+200 && id < tb.rows; id++ {
				lits := tb.row(id)
				for c := range lits {
					if j := junk[tb.name]; j != nil && j[c] {
						lits[c] = junkLiteral(tbl.Schema.Columns[c].Type, id, c)
					}
				}
				if id > start {
					b.WriteString(", ")
				}
				b.WriteString("(" + strings.Join(lits, ", ") + ")")
			}
			mustExec(t, s, b.String())
		}
	}
	for _, tb := range pruneTables {
		if err := db.Analyze(tb.name); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// boundPlan plans q on db with its arguments substituted: a private plan the
// test may edit.
func boundPlan(t *testing.T, db *DB, q pruneQuery) (*sql.Select, plan.Node) {
	t.Helper()
	sel := sql.MustParse(q.sql).(*sql.Select)
	node, err := db.Plan(sel)
	if err != nil {
		t.Fatalf("%s: %v", q.sql, err)
	}
	if node, err = plan.Substitute(node, q.args); err != nil {
		t.Fatalf("%s: %v", q.sql, err)
	}
	return sel, node
}

// eachScan calls fn with every scan's table name, column set (by pointer, so
// fn may clear it) and, for an index scan, the indexed column.
func eachScan(n plan.Node, fn func(table string, cols *[]bool, indexCol string)) {
	switch x := n.(type) {
	case *plan.SeqScan:
		fn(x.Table.Name, &x.Cols, "")
	case *plan.IndexScan:
		fn(x.Table.Name, &x.Cols, x.Index.Column)
	}
	for _, c := range n.Children() {
		eachScan(c, fn)
	}
}

// unreadColumns returns, per table the query scans, the columns no scan of it
// reads. An index scan's key column counts as read: the B+tree reads it.
func unreadColumns(t *testing.T, db *DB, q pruneQuery) map[string][]bool {
	_, node := boundPlan(t, db, q)
	unread := map[string][]bool{}
	eachScan(node, func(table string, cols *[]bool, indexCol string) {
		tbl, err := db.cat.Get(table)
		if err != nil {
			t.Fatal(err)
		}
		if unread[table] == nil {
			unread[table] = make([]bool, len(tbl.Schema.Columns))
			for i := range unread[table] {
				unread[table][i] = true
			}
		}
		for i, c := range tbl.Schema.Columns {
			if *cols == nil || (*cols)[i] || c.Name == indexCol {
				unread[table][i] = false
			}
		}
	})
	return unread
}

// runUnpruned runs q's plan with every column set cleared, on the Volcano
// driver.
func runUnpruned(t *testing.T, db *DB, q pruneQuery) []string {
	t.Helper()
	sel, node := boundPlan(t, db, q)
	eachScan(node, func(_ string, cols *[]bool, _ string) { *cols = nil })
	res, err := db.NewSession().RunStmt(context.Background(), sel, node)
	if err != nil {
		t.Fatalf("%s (unpruned): %v", q.sql, err)
	}
	return q.rowsOf(res.Rows)
}

// submitter is the front ends' common entry.
type submitter interface{ Submit(*Request) error }

// runFront runs q through a front end's own parse → plan → execute path.
func runFront(tb testing.TB, fe submitter, db *DB, q pruneQuery) ([]string, error) {
	req := newRequest(tb, db.NewSession(), q.sql)
	req.Args = q.args
	if err := fe.Submit(req); err != nil {
		return nil, err
	}
	res, err := req.Wait()
	if err != nil {
		return nil, err
	}
	return q.rowsOf(res.Rows), nil
}

func diffRows(got, want []string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d: got %s, want %s", i, got[i], want[i])
		}
	}
	return ""
}

func TestPruneMetamorphic(t *testing.T) {
	dbA := loadPruneDB(t, nil)

	// One B per distinct junk set (several queries share one; a query that
	// prunes nothing has no B).
	type variant struct {
		db      *DB
		queries []int
	}
	variants := map[string]*variant{}
	var order []string
	pruned := 0
	for i, q := range pruneCorpus {
		junk := unreadColumns(t, dbA, q)
		var sig []string
		for table, cols := range junk {
			for c, j := range cols {
				if j {
					sig = append(sig, fmt.Sprintf("%s.%d", table, c))
				}
			}
		}
		sort.Strings(sig)
		key := strings.Join(sig, " ")
		if key == "" {
			continue
		}
		pruned++
		if variants[key] == nil {
			variants[key] = &variant{db: loadPruneDB(t, junk)}
			order = append(order, key)
		}
		variants[key].queries = append(variants[key].queries, i)
	}
	if pruned < len(pruneCorpus)/2 {
		t.Fatalf("only %d of %d corpus queries prune anything; the corpus proves little", pruned, len(pruneCorpus))
	}

	want := make([][]string, len(pruneCorpus))
	for i, q := range pruneCorpus {
		want[i] = runUnpruned(t, dbA, q)
		if len(want[i]) == 0 {
			t.Fatalf("%s: the reference returns no rows; pick arguments that select some", q.sql)
		}
	}

	// check runs the given corpus queries on db through all three drivers;
	// on the shared-scan engine they are all in flight at once, twice over.
	check := func(label string, db *DB, queries []int) {
		shared := NewStaged(db, StagedConfig{})
		defer shared.Close()
		unshared := NewStaged(db, StagedConfig{DisableSharedScans: true})
		defer unshared.Close()
		volcano := NewThreaded(db, 2)
		defer volcano.Close()

		var wg sync.WaitGroup
		for round := 0; round < 2; round++ {
			for _, i := range queries {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got, err := runFront(t, shared, db, pruneCorpus[i])
					if err != nil {
						t.Errorf("%s staged-shared: %s: %v", label, pruneCorpus[i].sql, err)
					} else if d := diffRows(got, want[i]); d != "" {
						t.Errorf("%s staged-shared: %s: %s", label, pruneCorpus[i].sql, d)
					}
				}(i)
			}
		}
		wg.Wait()
		for _, i := range queries {
			for name, fe := range map[string]submitter{"staged-unshared": unshared, "volcano": volcano} {
				got, err := runFront(t, fe, db, pruneCorpus[i])
				if err != nil {
					t.Fatalf("%s %s: %s: %v", label, name, pruneCorpus[i].sql, err)
				}
				if d := diffRows(got, want[i]); d != "" {
					t.Errorf("%s %s: %s: %s", label, name, pruneCorpus[i].sql, d)
				}
			}
		}
	}

	all := make([]int, len(pruneCorpus))
	for i := range all {
		all[i] = i
	}
	check("A", dbA, all)
	for _, key := range order {
		v := variants[key]
		label := "B{" + key + "}"
		for _, i := range v.queries {
			if d := diffRows(runUnpruned(t, v.db, pruneCorpus[i]), want[i]); d != "" {
				t.Errorf("%s unpruned: %s: a column the pass calls unread changed the result: %s", label, pruneCorpus[i].sql, d)
			}
		}
		check(label, v.db, v.queries)
	}

	// The benchmark's two DML texts. UPDATE rewrites the whole row from what
	// it decoded, so a pruned decode there would wipe the columns its SET and
	// WHERE do not mention.
	staged := NewStaged(dbA, StagedConfig{})
	defer staged.Close()
	for _, dml := range []pruneQuery{
		{sql: "UPDATE acct SET bal = bal + ? WHERE id = ?", args: ints(5, 7)},
		{sql: "INSERT INTO hist VALUES (?, ?, ?)", args: ints(9000, 7, 5)},
	} {
		if _, err := runFront(t, staged, dbA, dml); err != nil {
			t.Fatalf("%s: %v", dml.sql, err)
		}
	}
	for q, wantRow := range map[string]string{
		"SELECT * FROM acct WHERE id = 7":    "(7, 7, 1012, 'acct-pad-7')",
		"SELECT * FROM hist WHERE id = 9000": "(9000, 7, 5)",
	} {
		got, err := runFront(t, staged, dbA, pruneQuery{sql: q})
		if err != nil || len(got) != 1 || got[0] != wantRow {
			t.Errorf("after DML, %s = %v, %v; want [%s]", q, got, err, wantRow)
		}
	}
}

// TestVisibleMemoMidScanCommit: a scan that first met a creator while it was
// still active keeps its rows invisible after the creator commits mid-scan —
// from the memo on the heap pages that follow, exactly as a fresh check would
// decide (the commit's timestamp is above the scan's snapshot).
func TestVisibleMemoMidScanCommit(t *testing.T) {
	db := NewDB(Config{})
	setup := db.NewSession()
	mustExec(t, setup, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	const base = 2 * exec.DefaultPageRows
	insert := func(s *Session, from, to int) {
		var b strings.Builder
		b.WriteString("INSERT INTO t VALUES ")
		for id := from; id < to; id++ {
			if id > from {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d)", id, id)
		}
		mustExec(t, s, b.String())
	}
	insert(setup, 0, base)

	writer := db.NewSession()
	mustExec(t, writer, "BEGIN")
	insert(writer, base, base+3000) // uncommitted, several heap pages

	// Precondition: the heap page holding the last committed row also holds
	// rows of the open transaction, so the scan meets the writer — active —
	// while it is still producing committed rows.
	tbl, err := db.cat.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.HeapOf(tbl)
	if err != nil {
		t.Fatal(err)
	}
	mixed := false
	for _, id := range h.PageIDs() {
		creators := map[uint64]bool{}
		if err := h.ScanPage(id, func(_ storage.RID, rec []byte) bool {
			xmin, _, err := storage.VersionOf(rec)
			if err != nil {
				t.Fatal(err)
			}
			creators[xmin] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		mixed = mixed || len(creators) > 1
	}
	if !mixed || h.Pages() < 4 {
		t.Fatalf("layout: %d heap pages, mixed page %v; the test needs a page with both creators and more pages after it", h.Pages(), mixed)
	}

	cur, err := db.NewSession().StreamStmt(context.Background(), sql.MustParse("SELECT id FROM t").(*sql.Select), nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for seen < base { // the Volcano scan advances only as far as it is pulled
		pg, err := cur.NextPage()
		if err != nil || pg == nil {
			t.Fatalf("after %d rows: page %v, err %v", seen, pg, err)
		}
		seen += pg.Len()
		pg.Release()
	}
	mustExec(t, writer, "COMMIT")
	for {
		pg, err := cur.NextPage()
		if err != nil {
			t.Fatal(err)
		}
		if pg == nil {
			break
		}
		seen += pg.Len()
		pg.Release()
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if seen != base {
		t.Fatalf("scan returned %d rows, want the %d committed before it began", seen, base)
	}
	if res := mustExec(t, setup, "SELECT COUNT(*) FROM t"); res.Rows[0][0].Int() != base+3000 {
		t.Fatalf("a fresh snapshot sees %v rows, want %d", res.Rows, base+3000)
	}
}

// TestVisibleMemoSelfJoinRace: the two scans of a self-join run at once on
// different stage workers and share one VisibleFunc closure. The memo is per
// scan operator, so under -race this is silent; kept in the closure it is a
// data race. Rows come from several transactions so both memos keep flipping.
func TestVisibleMemoSelfJoinRace(t *testing.T) {
	db := NewDB(Config{})
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for id := 0; id < 600; id += 3 { // one transaction per three rows
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, %d), (%d, %d), (%d, %d)", id, id%7, id+1, (id+1)%7, id+2, (id+2)%7))
	}
	mustExec(t, s, "DELETE FROM t WHERE v = 6") // dead versions: the full check interleaves with the memo
	db.SetPlanOptions(plan.Options{DisableIndex: true})
	q := "SELECT a.id, b.v FROM t a JOIN t b ON a.id = b.id WHERE a.v < 5"
	want := sortedRows(mustExec(t, s, q).Rows)
	if len(want) == 0 {
		t.Fatal("empty reference")
	}
	for _, cfg := range []StagedConfig{{}, {DisableSharedScans: true}, {ExecWorkers: 1, ExecQueueDepth: 1}} {
		staged := NewStaged(db, cfg)
		for round := 0; round < 3; round++ {
			res, err := submitSQL(t, staged, db.NewSession(), q)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffRows(sortedRows(res.Rows), want); d != "" {
				t.Fatalf("%+v round %d: %s", cfg, round, d)
			}
		}
		staged.Close()
	}
}
