package exec

// pagesize_test.go pins how exchange pages are sized: the width rule, the
// early-stopping regions that keep DefaultPageRows, and the bound on the
// heap pages (index entries) a scan walks behind one page.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"stagedb/internal/plan"
	"stagedb/internal/storage"
	"stagedb/internal/value"
)

func TestPageRowsForWidth(t *testing.T) {
	for _, tc := range []struct{ width, want int }{
		{0, maxPageRows}, {1, maxPageRows}, {7, maxPageRows}, {16, maxPageRows},
		{17, maxPageValues / 17}, {20, 409}, {128, DefaultPageRows}, {1000, DefaultPageRows},
	} {
		got := pageRowsFor(tc.width)
		if got != tc.want {
			t.Errorf("pageRowsFor(%d) = %d, want %d", tc.width, got, tc.want)
		}
		if tc.width > 0 && got > DefaultPageRows && got*tc.width > maxPageValues {
			t.Errorf("pageRowsFor(%d) = %d rows overflow a recycled page's %d values", tc.width, got, maxPageValues)
		}
	}
}

// pageSizes lists "operator/rows" for every page-filling operator of a
// Volcano tree, children after their parent.
func pageSizes(op Operator) []string {
	var out []string
	var walk func(op Operator)
	walk = func(op Operator) {
		if s := pageSizeOf(op); s != "" {
			out = append(out, s)
		}
		switch x := op.(type) {
		case *limitOp:
			walk(x.child)
		case *projectOp:
			walk(x.child)
		case *filterOp:
			walk(x.child)
		case *sortOp:
			walk(x.child)
		case *topNOp:
			walk(x.child)
		case *aggregateOp:
			walk(x.child)
		case *hashJoin:
			walk(x.left)
			walk(x.right)
		}
	}
	walk(op)
	return out
}

// pageSizeOf renders one operator's page capacity ("" for an operator that
// forwards its input's pages).
func pageSizeOf(op Operator) string {
	switch x := op.(type) {
	case *seqScan:
		return fmt.Sprintf("scan %s/%d", x.node.Table.Name, x.rows.pageRows)
	case *sortOp:
		return fmt.Sprintf("sort/%d", x.pageRows)
	case *topNOp:
		return fmt.Sprintf("topn/%d", x.pageRows)
	case *aggregateOp:
		return fmt.Sprintf("agg/%d", x.pageRows)
	case *hashJoin:
		return fmt.Sprintf("join/%d", x.pageRows)
	}
	return ""
}

// TestPageRowsFollowWidthAndEarlyStops: with PageRows 0 each operator's
// pages follow its row width, every node from a Limit down to the first
// blocking operator keeps DefaultPageRows, and a fixed
// PageRows fixes them all — on both drivers, which must agree.
func TestPageRowsFollowWidthAndEarlyStops(t *testing.T) {
	db := newTestDB()
	db.createTable(t, "CREATE TABLE t3 (id INT PRIMARY KEY, grp INT, v INT)")
	db.createTable(t, "CREATE TABLE u (id INT PRIMARY KEY, name TEXT)")
	cols := make([]string, 20)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d INT", i)
	}
	db.createTable(t, "CREATE TABLE w ("+strings.Join(cols, ", ")+")")
	rows := make([]value.Row, 300)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 10)), value.NewInt(int64(i * 7 % 300))}
	}
	db.insert(t, "t3", rows...)
	rows = make([]value.Row, 10)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewText(fmt.Sprintf("n%d", i))}
	}
	db.insert(t, "u", rows...)

	cases := []struct {
		q    string
		want []string // with PageRows 0
	}{
		{"SELECT * FROM t3", []string{"scan t3/512"}},
		{"SELECT * FROM w", []string{"scan w/409"}},
		{"SELECT * FROM t3 LIMIT 5", []string{"scan t3/64"}},
		{"SELECT * FROM t3 LIMIT 5 OFFSET 200", []string{"scan t3/64"}},
		{"SELECT id, v FROM t3 ORDER BY v LIMIT 9000", []string{"sort/64", "scan t3/512"}},
		{"SELECT id, v FROM t3 ORDER BY v LIMIT 5", []string{"topn/512", "scan t3/512"}},
		{"SELECT grp, COUNT(*) FROM t3 GROUP BY grp LIMIT 2", []string{"agg/64", "scan t3/512"}},
		{"SELECT t3.id, u.name FROM t3 JOIN u ON t3.grp = u.id", []string{"join/512", "scan t3/512", "scan u/512"}},
		{"SELECT t3.id, u.name FROM t3 JOIN u ON t3.grp = u.id LIMIT 5", []string{"join/64", "scan t3/64", "scan u/512"}},
	}
	sp := newTestPool(t)
	for _, tc := range cases {
		t.Run(tc.q, func(t *testing.T) {
			node := db.plan(t, tc.q, plan.Options{})
			for _, fixed := range []int{0, 4} {
				want := tc.want
				if fixed > 0 {
					want = slices.Clone(want)
					for i, s := range want {
						want[i] = s[:strings.LastIndexByte(s, '/')+1] + "4"
					}
				}
				op, err := BuildWith(node, db, BuildConfig{PageRows: fixed})
				if err != nil {
					t.Fatal(err)
				}
				if got := pageSizes(op); !slices.Equal(got, want) {
					t.Fatalf("PageRows %d, Volcano: %v, want %v\n%s", fixed, got, want, plan.Explain(node))
				}
				cur, err := RunStagedCursor(node, db, sp, StagedOptions{PageRows: fixed})
				if err != nil {
					t.Fatal(err)
				}
				var staged []string
				for _, task := range cur.(*stagedCursor).p.tasks {
					if s := pageSizeOf(task.op); s != "" {
						staged = append(staged, s)
					}
				}
				if err := cur.Close(); err != nil {
					t.Fatal(err)
				}
				slices.Sort(staged)
				if want = slices.Sorted(slices.Values(want)); !slices.Equal(staged, want) {
					t.Fatalf("PageRows %d, staged: %v, want %v", fixed, staged, want)
				}
			}
		})
	}
}

// earlyStopDB loads sel (id, v, pad) with n rows, about 50 to a heap page,
// one in 100 with v = 0, and a small table cold, on a 4-frame buffer pool:
// a scan reads nearly every heap page it walks from the store, so
// Store.Reads counts the walk. Scanning cold evicts sel's pages.
func earlyStopDB(t *testing.T, n int) (db *testDB, st *storage.Store, heapPages int) {
	t.Helper()
	db = newTestDB()
	st = storage.NewStore()
	db.pool = storage.NewPool(st, 4)
	db.createTable(t, "CREATE TABLE sel (id INT PRIMARY KEY, v INT, pad TEXT)")
	db.createTable(t, "CREATE TABLE cold (id INT PRIMARY KEY, pad TEXT)")
	pad := strings.Repeat("p", 140)
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 100)), value.NewText(pad)}
	}
	db.insert(t, "sel", rows...)
	rows = make([]value.Row, 400)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewText(pad)}
	}
	db.insert(t, "cold", rows...)
	return db, st, db.heaps["sel"].Pages()
}

// evictSel walks cold, so the next scan of sel reads each of its pages from
// the store.
func evictSel(t *testing.T, db *testDB) {
	t.Helper()
	if err := db.heaps["cold"].Scan(func(storage.RID, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
}

// earlyStopDrivers opens a cursor over node on each driver; the staged one
// buffers one page per exchange.
func earlyStopDrivers(t *testing.T, db *testDB) map[string]func(node plan.Node) Cursor {
	sp := newTestPool(t)
	return map[string]func(node plan.Node) Cursor{
		"volcano": func(node plan.Node) Cursor {
			op, err := BuildWith(node, db, BuildConfig{})
			if err != nil {
				t.Fatal(err)
			}
			cur, err := NewCursor(context.Background(), op)
			if err != nil {
				t.Fatal(err)
			}
			return cur
		},
		"staged": func(node plan.Node) Cursor {
			cur, err := RunStagedCursor(node, db, sp, StagedOptions{BufferPages: 1})
			if err != nil {
				t.Fatal(err)
			}
			return cur
		},
	}
}

// TestSelectiveScanFirstPageWalksBoundedPages: a 1%-selective seq scan hands
// over its first page once it walked scanPagesPerPage heap pages, not once
// it found a full 512-row page of matches (which this table does not even
// hold). The staged driver's scan may walk ahead for the page in its output
// buffer and the one it waits to send.
func TestSelectiveScanFirstPageWalksBoundedPages(t *testing.T) {
	db, st, heapPages := earlyStopDB(t, 20000)
	if heapPages < 200 {
		t.Fatalf("sel spans %d heap pages, want at least 200", heapPages)
	}
	node := scanOf(t, db.plan(t, "SELECT * FROM sel WHERE v = 0", plan.Options{DisableIndex: true}))
	readAhead := map[string]int{"volcano": 0, "staged": 2 * scanPagesPerPage}
	for name, open := range earlyStopDrivers(t, db) {
		t.Run(name, func(t *testing.T) {
			evictSel(t, db)
			before := st.Reads()
			cur := open(node)
			defer cur.Close()
			pg, err := cur.NextPage()
			if err != nil || pg == nil {
				t.Fatalf("first page: %v, %v", pg, err)
			}
			n := pg.Len()
			pg.Release()
			reads := int(st.Reads() - before)
			if limit := scanPagesPerPage + readAhead[name]; reads > limit {
				t.Fatalf("first page of %d rows came after %d heap-page reads, want at most %d", n, reads, limit)
			}
			if n == 0 || n >= DefaultPageRows {
				t.Fatalf("first page holds %d rows: want the matches of %d heap pages", n, scanPagesPerPage)
			}
		})
	}
}

// TestEmptyScanWalksEveryPageOnce: a scan that matches nothing hands over
// no empty page on the way — its first page is end of stream — and walks
// every heap page exactly once.
func TestEmptyScanWalksEveryPageOnce(t *testing.T) {
	db, st, heapPages := earlyStopDB(t, 20000)
	node := db.plan(t, "SELECT * FROM sel WHERE pad = 'none'", plan.Options{DisableIndex: true})
	for name, open := range earlyStopDrivers(t, db) {
		t.Run(name, func(t *testing.T) {
			evictSel(t, db)
			before := st.Reads()
			cur := open(node)
			pg, err := cur.NextPage()
			if err != nil || pg != nil {
				t.Fatalf("first page of an empty scan: %v, %v; want end of stream", pg, err)
			}
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
			if reads := int(st.Reads() - before); reads != heapPages {
				t.Fatalf("empty scan read %d heap pages, want each of %d once", reads, heapPages)
			}
		})
	}
}

// TestIndexScanFirstPageVisitsBoundedEntries: an index range scan whose
// filter keeps 1% of the range hands over its first page once it visited
// scanEntriesPerPage index entries.
func TestIndexScanFirstPageVisitsBoundedEntries(t *testing.T) {
	db, st, heapPages := earlyStopDB(t, 20000)
	db.addIndex(t, "sel", "pk_sel", "id", false)
	top := db.plan(t, "SELECT * FROM sel WHERE id >= 10 AND v = 0", plan.Options{})
	node := top.Children()[0]
	if _, ok := node.(*plan.IndexScan); !ok {
		t.Fatalf("no index scan under the projection:\n%s", plan.Explain(top))
	}
	op, err := BuildWith(node, db, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	evictSel(t, db)
	before := st.Reads()
	cur, err := NewCursor(context.Background(), op)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	pg, err := cur.NextPage()
	if err != nil || pg == nil {
		t.Fatalf("first page: %v, %v", pg, err)
	}
	n := pg.Len()
	pg.Release()
	// Keys ascend with the heap order, so the entries visited read about
	// scanEntriesPerPage / rows-per-heap-page pages.
	rowsPerPage := 20000 / heapPages
	if reads, limit := int(st.Reads()-before), scanEntriesPerPage/rowsPerPage+2; reads > limit {
		t.Fatalf("first page of %d rows came after %d heap-page reads, want at most %d", n, reads, limit)
	}
	want := 0
	for id := 10; id < 10+scanEntriesPerPage; id++ {
		if id%100 == 0 {
			want++
		}
	}
	if n != want {
		t.Fatalf("first page holds %d rows, want the %d matches of %d entries", n, want, scanEntriesPerPage)
	}
}

// BenchmarkStagedPages runs the agg and join shapes of the analytic
// workloads on the staged driver over a 200k-row table, at 64-row pages and
// under the width rule. pages/op counts the exchange pages the query's
// operators filled from the page pool: every scan, join and projection
// output page, each handed off once (an aggregation's few output pages are
// views, not counted). It is the number of handoffs a page size buys.
func BenchmarkStagedPages(b *testing.B) {
	const rows = 200_000
	db := newTestDB()
	db.createTable(b, "CREATE TABLE fact (id INT PRIMARY KEY, grp INT, k INT, val INT, pad TEXT)")
	db.createTable(b, "CREATE TABLE dim (grp INT PRIMARY KEY, name TEXT)")
	pad := strings.Repeat("x", 64)
	facts := make([]value.Row, rows)
	for i := range facts {
		facts[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 64)),
			value.NewInt(int64(i * 7919 % 50_000)), value.NewInt(int64(uint64(i) * 2654435761 % 1_000_003)), value.NewText(pad)}
	}
	db.insert(b, "fact", facts...)
	dims := make([]value.Row, 64)
	for g := range dims {
		dims[g] = value.Row{value.NewInt(int64(g)), value.NewText(fmt.Sprintf("g%02d", g))}
	}
	db.insert(b, "dim", dims...)
	sp := NewStagePool(StagePoolConfig{})
	defer sp.Close()
	pp := NewPagePool()
	for _, shape := range []struct{ name, q string }{
		{"agg", "SELECT grp, COUNT(*), SUM(val) FROM fact WHERE val > 500000 GROUP BY grp"},
		{"join", "SELECT d.name, COUNT(*), SUM(f.val) FROM fact f JOIN dim d ON f.grp = d.grp WHERE f.val > 500000 GROUP BY d.name"},
	} {
		node := db.plan(b, shape.q, plan.Options{})
		for _, pageRows := range []int{DefaultPageRows, 0} {
			b.Run(fmt.Sprintf("%s/pagerows=%d", shape.name, pageRows), func(b *testing.B) {
				b.ReportAllocs()
				before := pp.Stats()
				for i := 0; i < b.N; i++ {
					res, err := RunStaged(node, db, sp, StagedOptions{PageRows: pageRows, Pool: pp})
					if err != nil || len(res) != 64 {
						b.Fatalf("%d groups, err %v", len(res), err)
					}
				}
				after := pp.Stats()
				b.ReportMetric(float64(after.Hits+after.Misses-before.Hits-before.Misses)/float64(b.N), "pages/op")
			})
		}
	}
}
