package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"stagedb/internal/catalog"
	"stagedb/internal/mvcc"
	"stagedb/internal/plan"
	"stagedb/internal/sql"
	"stagedb/internal/storage"
	"stagedb/internal/value"
)

// testDB wires a catalog to heaps and indexes for tests.
type testDB struct {
	cat     *catalog.Catalog
	pool    *storage.Pool
	heaps   map[string]*storage.Heap
	indexes map[string]*storage.BTree
}

func newTestDB() *testDB {
	return &testDB{
		cat:     catalog.New(),
		pool:    storage.NewPool(storage.NewStore(), 256),
		heaps:   make(map[string]*storage.Heap),
		indexes: make(map[string]*storage.BTree),
	}
}

func (db *testDB) HeapOf(t *catalog.Table) (*storage.Heap, error) {
	h, ok := db.heaps[t.Name]
	if !ok {
		return nil, fmt.Errorf("no heap for %s", t.Name)
	}
	return h, nil
}

func (db *testDB) IndexOf(ix *catalog.Index) (*storage.BTree, error) {
	bt, ok := db.indexes[ix.Name]
	if !ok {
		return nil, fmt.Errorf("no index %s", ix.Name)
	}
	return bt, nil
}

func (db *testDB) createTable(t testing.TB, ddl string) {
	t.Helper()
	stmt := sql.MustParse(ddl).(*sql.CreateTable)
	cols := make([]catalog.Column, len(stmt.Columns))
	for i, c := range stmt.Columns {
		cols[i] = catalog.Column{Name: c.Name, Type: c.Type, PrimaryKey: c.PrimaryKey}
	}
	if _, err := db.cat.Create(stmt.Name, catalog.Schema{Columns: cols}); err != nil {
		t.Fatal(err)
	}
	db.heaps[stmt.Name] = storage.NewHeap(db.pool)
}

// versionOf encodes row as a committed version record (xmin 1, xmax 0): the
// one heap layout the scans read.
func versionOf(tb testing.TB, schema catalog.Schema, row value.Row) []byte {
	tb.Helper()
	payload, err := storage.EncodeRow(schema, row)
	if err != nil {
		tb.Fatal(err)
	}
	return mvcc.NewVersion(1, payload)
}

// decodeVersion decodes a version record written by versionOf.
func decodeVersion(tb testing.TB, schema catalog.Schema, rec []byte) value.Row {
	tb.Helper()
	payload, err := storage.PayloadOf(rec)
	if err == nil {
		var row value.Row
		if row, err = storage.DecodeRow(schema, payload, nil); err == nil {
			return row
		}
	}
	tb.Fatal(err)
	return nil
}

func (db *testDB) insert(t testing.TB, table string, rows ...value.Row) {
	t.Helper()
	tbl, err := db.cat.Get(table)
	if err != nil {
		t.Fatal(err)
	}
	h := db.heaps[table]
	for _, row := range rows {
		norm, err := tbl.Schema.Validate(row)
		if err != nil {
			t.Fatal(err)
		}
		rid, err := h.Insert(versionOf(t, tbl.Schema, norm))
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range tbl.Indexes {
			db.indexes[ix.Name].Insert(norm[ix.ColIdx], rid)
		}
	}
	// Refresh stats.
	db.analyze(t, table)
}

func (db *testDB) analyze(t testing.TB, table string) {
	t.Helper()
	tbl, _ := db.cat.Get(table)
	h := db.heaps[table]
	stats := catalog.TableStats{Columns: make([]catalog.ColumnStats, len(tbl.Schema.Columns))}
	distinct := make([]map[uint64]bool, len(tbl.Schema.Columns))
	for i := range distinct {
		distinct[i] = make(map[uint64]bool)
	}
	h.Scan(func(_ storage.RID, rec []byte) bool {
		row := decodeVersion(t, tbl.Schema, rec)
		stats.RowCount++
		for i, v := range row {
			if v.IsNull() {
				continue
			}
			distinct[i][v.Hash()] = true
			cs := &stats.Columns[i]
			if cs.Min.IsNull() {
				cs.Min, cs.Max = v, v
				continue
			}
			if c, err := value.Compare(v, cs.Min); err == nil && c < 0 {
				cs.Min = v
			}
			if c, err := value.Compare(v, cs.Max); err == nil && c > 0 {
				cs.Max = v
			}
		}
		return true
	})
	for i := range stats.Columns {
		stats.Columns[i].Distinct = int64(len(distinct[i]))
	}
	db.cat.UpdateStats(table, stats)
}

func (db *testDB) addIndex(t *testing.T, table, name, column string, unique bool) {
	t.Helper()
	ix, err := db.cat.AddIndex(table, name, column, unique)
	if err != nil {
		t.Fatal(err)
	}
	bt := storage.NewBTree()
	tbl, _ := db.cat.Get(table)
	db.heaps[table].Scan(func(rid storage.RID, rec []byte) bool {
		bt.Insert(decodeVersion(t, tbl.Schema, rec)[ix.ColIdx], rid)
		return true
	})
	db.indexes[name] = bt
}

// runPull runs a plan on the pull (Volcano) driver — the differential oracle
// the staged driver's results are compared against.
func runPull(node plan.Node, db *testDB, cfg BuildConfig) ([]value.Row, error) {
	op, err := BuildWith(node, db, cfg)
	if err != nil {
		return nil, err
	}
	return RunCtx(context.Background(), op)
}

// query plans and runs a SELECT with the pull driver.
func (db *testDB) query(t *testing.T, q string, opt plan.Options) []value.Row {
	t.Helper()
	rows, err := runPull(db.plan(t, q, opt), db, BuildConfig{})
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return rows
}

// newTestPool starts a default-sized stage pool that closes with the test.
func newTestPool(t *testing.T) *StagePool {
	t.Helper()
	pool := NewStagePool(StagePoolConfig{})
	t.Cleanup(pool.Close)
	return pool
}

// onEachPool runs fn on the default pool and on a 1-worker, depth-1 pool,
// where any blocking call left in an operator or exchange would
// deadlock the stage instead of merely slowing it down.
func onEachPool(t *testing.T, fn func(t *testing.T, pool *StagePool)) {
	t.Run("default", func(t *testing.T) { fn(t, newTestPool(t)) })
	t.Run("tiny", func(t *testing.T) {
		pool := NewStagePool(StagePoolConfig{Workers: 1, QueueDepth: 1})
		t.Cleanup(pool.Close)
		fn(t, pool)
	})
}

func (db *testDB) plan(t testing.TB, q string, opt plan.Options) plan.Node {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	node, err := plan.BindSelect(db.cat, stmt.(*sql.Select), opt)
	if err != nil {
		t.Fatalf("bind %q: %v", q, err)
	}
	return node
}

// rowsToStrings renders rows for order-insensitive comparison.
func rowsToStrings(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, got, want []value.Row) {
	t.Helper()
	g, w := rowsToStrings(got), rowsToStrings(want)
	if len(g) != len(w) {
		t.Fatalf("got %d rows, want %d\ngot:  %v\nwant: %v", len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d: got %s want %s", i, g[i], w[i])
		}
	}
}

func seedDB(t *testing.T) *testDB {
	db := newTestDB()
	db.createTable(t, "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, dept INT, salary FLOAT)")
	db.createTable(t, "CREATE TABLE dept (id INT PRIMARY KEY, dname TEXT)")
	db.insert(t, "dept",
		value.Row{value.NewInt(1), value.NewText("eng")},
		value.Row{value.NewInt(2), value.NewText("sales")},
		value.Row{value.NewInt(3), value.NewText("empty")},
	)
	db.insert(t, "emp",
		value.Row{value.NewInt(1), value.NewText("ann"), value.NewInt(1), value.NewFloat(100)},
		value.Row{value.NewInt(2), value.NewText("bob"), value.NewInt(1), value.NewFloat(90)},
		value.Row{value.NewInt(3), value.NewText("carol"), value.NewInt(2), value.NewFloat(120)},
		value.Row{value.NewInt(4), value.NewText("dave"), value.NewInt(2), value.NewFloat(80)},
		value.Row{value.NewInt(5), value.NewText("eve"), value.NewNull(), value.NewFloat(70)},
	)
	return db
}

func TestSelectAllAndWhere(t *testing.T) {
	db := seedDB(t)
	rows := db.query(t, "SELECT * FROM emp", plan.Options{})
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	rows = db.query(t, "SELECT name FROM emp WHERE salary > 85 AND dept = 1", plan.Options{})
	sameRows(t, rows, []value.Row{
		{value.NewText("ann")},
		{value.NewText("bob")},
	})
}

func TestProjectionExpressions(t *testing.T) {
	db := seedDB(t)
	rows := db.query(t, "SELECT id * 10 + 1 FROM emp WHERE id <= 2", plan.Options{})
	sameRows(t, rows, []value.Row{{value.NewInt(11)}, {value.NewInt(21)}})
}

// TestJoinShapes runs each join shape through the one join operator: the
// pull driver must return exactly the expected rows in probe-major order
// (emp probes, dept builds in arrival order), EXPLAIN must name a HashJoin
// with keys= only when equi keys exist, and the staged driver must return
// the same rows.
func TestJoinShapes(t *testing.T) {
	db := seedDB(t)
	pool := newTestPool(t)
	for _, tc := range []struct {
		name, q string
		keyed   bool
		want    []string
	}{
		{"equi", "SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.id", true, []string{
			"('ann', 'eng')", "('bob', 'eng')", "('carol', 'sales')", "('dave', 'sales')"}},
		{"cross", "SELECT e.name, d.dname FROM emp e, dept d", false, []string{
			"('ann', 'eng')", "('ann', 'sales')", "('ann', 'empty')",
			"('bob', 'eng')", "('bob', 'sales')", "('bob', 'empty')",
			"('carol', 'eng')", "('carol', 'sales')", "('carol', 'empty')",
			"('dave', 'eng')", "('dave', 'sales')", "('dave', 'empty')",
			"('eve', 'eng')", "('eve', 'sales')", "('eve', 'empty')"}},
		{"non-equi", "SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept < d.id", false, []string{
			"('ann', 'sales')", "('ann', 'empty')", "('bob', 'sales')", "('bob', 'empty')",
			"('carol', 'empty')", "('dave', 'empty')"}},
		{"equi+residual", "SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.id AND e.id > d.id", true, []string{
			"('bob', 'eng')", "('carol', 'sales')", "('dave', 'sales')"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node := db.plan(t, tc.q, plan.Options{})
			explain := plan.Explain(node)
			if !strings.Contains(explain, "HashJoin") || strings.Contains(explain, "keys=") != tc.keyed {
				t.Fatalf("want a HashJoin (keyed=%v):\n%s", tc.keyed, explain)
			}
			got := rowStrings(db.query(t, tc.q, plan.Options{}))
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Fatalf("got  %v\nwant %v", got, tc.want)
			}
			staged, err := RunStaged(node, db, pool, StagedOptions{PageRows: 2, BufferPages: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := append([]string(nil), tc.want...)
			sort.Strings(want)
			if g := rowsToStrings(staged); strings.Join(g, " ") != strings.Join(want, " ") {
				t.Fatalf("staged: got %v\nwant %v", g, want)
			}
		})
	}
}

func TestJoinNullKeysDropped(t *testing.T) {
	db := seedDB(t)
	rows := db.query(t, "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.id WHERE e.id = 5", plan.Options{})
	if len(rows) != 0 {
		t.Fatalf("NULL dept must not join: %v", rows)
	}
}

func TestThreeWayJoinWithReorder(t *testing.T) {
	db := seedDB(t)
	db.createTable(t, "CREATE TABLE bonus (emp_id INT, amount FLOAT)")
	db.insert(t, "bonus",
		value.Row{value.NewInt(1), value.NewFloat(10)},
		value.Row{value.NewInt(3), value.NewFloat(30)},
	)
	q := `SELECT e.name, d.dname, b.amount FROM emp e, dept d, bonus b
	      WHERE e.dept = d.id AND b.emp_id = e.id`
	want := []value.Row{
		{value.NewText("ann"), value.NewText("eng"), value.NewFloat(10)},
		{value.NewText("carol"), value.NewText("sales"), value.NewFloat(30)},
	}
	sameRows(t, db.query(t, q, plan.Options{}), want)
	sameRows(t, db.query(t, q, plan.Options{DisableJoinReorder: true}), want)
}

func TestGroupByAggregates(t *testing.T) {
	db := seedDB(t)
	rows := db.query(t, `SELECT dept, COUNT(*), SUM(salary), AVG(salary), MIN(name), MAX(salary)
		FROM emp WHERE dept IS NOT NULL GROUP BY dept`, plan.Options{})
	sameRows(t, rows, []value.Row{
		{value.NewInt(1), value.NewInt(2), value.NewFloat(190), value.NewFloat(95), value.NewText("ann"), value.NewFloat(100)},
		{value.NewInt(2), value.NewInt(2), value.NewFloat(200), value.NewFloat(100), value.NewText("carol"), value.NewFloat(120)},
	})
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	db := seedDB(t)
	rows := db.query(t, "SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 100", plan.Options{})
	if len(rows) != 1 {
		t.Fatalf("global aggregate must emit one row, got %d", len(rows))
	}
	if rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Fatalf("empty aggregate: %v", rows[0])
	}
}

func TestHaving(t *testing.T) {
	db := seedDB(t)
	rows := db.query(t, `SELECT dept, AVG(salary) FROM emp WHERE dept IS NOT NULL
		GROUP BY dept HAVING AVG(salary) > 96`, plan.Options{})
	sameRows(t, rows, []value.Row{
		{value.NewInt(2), value.NewFloat(100)},
	})
}

func TestOrderByLimitOffset(t *testing.T) {
	db := seedDB(t)
	rows := db.query(t, "SELECT name FROM emp ORDER BY salary DESC LIMIT 2", plan.Options{})
	if len(rows) != 2 || rows[0][0].Text() != "carol" || rows[1][0].Text() != "ann" {
		t.Fatalf("order/limit: %v", rows)
	}
	rows = db.query(t, "SELECT name FROM emp ORDER BY salary DESC LIMIT 2 OFFSET 1", plan.Options{})
	if len(rows) != 2 || rows[0][0].Text() != "ann" || rows[1][0].Text() != "bob" {
		t.Fatalf("offset: %v", rows)
	}
}

func TestDistinct(t *testing.T) {
	db := seedDB(t)
	rows := db.query(t, "SELECT DISTINCT dept FROM emp WHERE dept IS NOT NULL", plan.Options{})
	if len(rows) != 2 {
		t.Fatalf("distinct: %v", rows)
	}
}

func TestPredicates(t *testing.T) {
	db := seedDB(t)
	rows := db.query(t, "SELECT name FROM emp WHERE name LIKE '%a%' AND id IN (1, 3, 5)", plan.Options{})
	sameRows(t, rows, []value.Row{{value.NewText("ann")}, {value.NewText("carol")}})
	rows = db.query(t, "SELECT name FROM emp WHERE salary BETWEEN 80 AND 100", plan.Options{})
	if len(rows) != 3 {
		t.Fatalf("between: %v", rows)
	}
	rows = db.query(t, "SELECT name FROM emp WHERE dept IS NULL", plan.Options{})
	sameRows(t, rows, []value.Row{{value.NewText("eve")}})
}

func TestIndexScanChosenAndCorrect(t *testing.T) {
	db := seedDB(t)
	db.addIndex(t, "emp", "idx_emp_id", "id", false)
	node := db.plan(t, "SELECT name FROM emp WHERE id = 3", plan.Options{})
	if !strings.Contains(plan.Explain(node), "IndexScan") {
		t.Fatalf("expected index scan:\n%s", plan.Explain(node))
	}
	rows, err := runPull(node, db, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, rows, []value.Row{{value.NewText("carol")}})

	// Range scan through the index.
	node = db.plan(t, "SELECT name FROM emp WHERE id BETWEEN 2 AND 4", plan.Options{})
	if !strings.Contains(plan.Explain(node), "IndexScan") {
		t.Fatalf("expected index scan:\n%s", plan.Explain(node))
	}
	rows, _ = runPull(node, db, BuildConfig{})
	if len(rows) != 3 {
		t.Fatalf("index range: %v", rows)
	}

	// Disabled index falls back to seq scan with the same answer.
	node = db.plan(t, "SELECT name FROM emp WHERE id = 3", plan.Options{DisableIndex: true})
	if strings.Contains(plan.Explain(node), "IndexScan") {
		t.Fatal("index should be disabled")
	}
	rows, _ = runPull(node, db, BuildConfig{})
	sameRows(t, rows, []value.Row{{value.NewText("carol")}})
}

func TestPushdownDisabledSameAnswer(t *testing.T) {
	db := seedDB(t)
	q := "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.id WHERE e.salary > 85 AND d.dname = 'eng'"
	a := db.query(t, q, plan.Options{})
	b := db.query(t, q, plan.Options{DisablePushdown: true})
	sameRows(t, a, b)
	if len(a) != 2 {
		t.Fatalf("want ann+bob: %v", a)
	}
}

func TestStagedDriverMatchesPullDriver(t *testing.T) {
	db := seedDB(t)
	queries := []string{
		"SELECT * FROM emp",
		"SELECT name FROM emp WHERE salary > 85 AND dept = 1",
		"SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.id",
		"SELECT dept, COUNT(*) FROM emp WHERE dept IS NOT NULL GROUP BY dept",
		"SELECT name FROM emp ORDER BY salary DESC LIMIT 3",
		"SELECT DISTINCT dept FROM emp WHERE dept IS NOT NULL",
	}
	pool := newTestPool(t)
	for _, q := range queries {
		node := db.plan(t, q, plan.Options{})
		pull := db.query(t, q, plan.Options{})
		staged, err := RunStaged(node, db, pool, StagedOptions{PageRows: 2, BufferPages: 2})
		if err != nil {
			t.Fatalf("staged %q: %v", q, err)
		}
		sameRows(t, staged, pull)
	}
}

func TestStagedBackPressureSmallBuffers(t *testing.T) {
	// 1-row pages and 1-page buffers force constant blocking on the
	// exchanges; results must still be complete.
	db := seedDB(t)
	node := db.plan(t, "SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.id", plan.Options{})
	staged, err := RunStaged(node, db, newTestPool(t), StagedOptions{PageRows: 1, BufferPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(staged) != 4 {
		t.Fatalf("got %d rows", len(staged))
	}
}

func TestStagedErrorPropagates(t *testing.T) {
	db := seedDB(t)
	node := db.plan(t, "SELECT salary / (id - 1) FROM emp", plan.Options{})
	if _, err := RunStaged(node, db, newTestPool(t), StagedOptions{PageRows: 2, BufferPages: 2}); err == nil {
		t.Fatal("division by zero must propagate through the pipeline")
	}
}

func TestPullDriverErrorPropagates(t *testing.T) {
	db := seedDB(t)
	node := db.plan(t, "SELECT salary / (id - 1) FROM emp", plan.Options{})
	if _, err := runPull(node, db, BuildConfig{}); err == nil {
		t.Fatal("division by zero must propagate")
	}
}

func TestBindErrors(t *testing.T) {
	db := seedDB(t)
	bad := []string{
		"SELECT nope FROM emp",
		"SELECT id FROM nope",
		"SELECT emp.id, emp.id FROM emp, emp",          // duplicate binding
		"SELECT id FROM emp GROUP BY dept",             // id not grouped
		"SELECT x.id FROM emp e",                       // unknown qualifier
		"SELECT id FROM emp WHERE salary > dept.dname", // unknown table in pred
	}
	for _, q := range bad {
		stmt, err := sql.Parse(q)
		if err != nil {
			continue
		}
		if _, err := plan.BindSelect(db.cat, stmt.(*sql.Select), plan.Options{}); err == nil {
			t.Fatalf("bind %q should fail", q)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := seedDB(t)
	stmt := sql.MustParse("SELECT id FROM emp e, dept d").(*sql.Select)
	if _, err := plan.BindSelect(db.cat, stmt, plan.Options{}); err == nil {
		t.Fatal("ambiguous id should fail")
	}
}

func TestExplainShape(t *testing.T) {
	db := seedDB(t)
	node := db.plan(t, "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY dept LIMIT 5", plan.Options{})
	out := plan.Explain(node)
	// ORDER BY + LIMIT fuses into a TopN node (bounded k-heap), here over
	// the Project that renames the count.
	for _, want := range []string{"TopN", "Project", "Aggregate", "SeqScan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %s:\n%s", want, out)
		}
	}
	node = db.plan(t, "SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept", plan.Options{})
	if out := plan.Explain(node); !strings.Contains(out, "Sort") {
		t.Fatalf("unbounded ORDER BY keeps its Sort:\n%s", out)
	}
	// A huge LIMIT must not fuse: the Top-N heap has no spill path, so past
	// TopNMaxK the Sort+Limit shape (external sort, O(budget)) stays.
	node = db.plan(t, "SELECT id FROM emp ORDER BY id LIMIT 50000000", plan.Options{})
	out = plan.Explain(node)
	if strings.Contains(out, "TopN") || !strings.Contains(out, "Sort") {
		t.Fatalf("huge LIMIT should keep Sort+Limit, not TopN:\n%s", out)
	}
}

func TestStageOfAssignsOperatorStages(t *testing.T) {
	db := seedDB(t)
	node := db.plan(t, "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.id ORDER BY e.name", plan.Options{})
	stages := map[string]bool{}
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		stages[plan.StageOf(n)] = true
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(node)
	for _, want := range []string{"fscan:emp", "fscan:dept", "join", "sort", "exec"} {
		if !stages[want] {
			t.Fatalf("missing stage %s in %v", want, stages)
		}
	}
}

func TestConstantFolding(t *testing.T) {
	db := seedDB(t)
	node := db.plan(t, "SELECT id FROM emp WHERE 1 + 1 = 2", plan.Options{})
	// The predicate folds to TRUE and every row passes.
	rows, err := runPull(node, db, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("folded TRUE filter: %v", rows)
	}
}

// TestPruneIndexProbeAllocations pins the Volcano point probe's
// allocations: building the operator of the IndexScan plan `SELECT bal FROM
// acct WHERE id = ?` binds to, and draining it. A scan with no filter builds
// no probe row, and its decoder is a value, so going filter-first added
// nothing here.
func TestPruneIndexProbeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops recycled pages at random under the race detector")
	}
	db := newTestDB()
	db.createTable(t, "CREATE TABLE acct (id INT PRIMARY KEY, grp INT, bal INT, pad TEXT)")
	db.addIndex(t, "acct", "pk_acct", "id", true)
	for id := int64(0); id < 100; id++ {
		db.insert(t, "acct", value.Row{value.NewInt(id), value.NewInt(id % 4), value.NewInt(id * 10), value.NewText("pad")})
	}
	node, err := plan.Substitute(db.plan(t, "SELECT bal FROM acct WHERE id = ?", plan.Options{}), []value.Value{value.NewInt(42)})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.PointProbe(node) {
		t.Fatalf("plan %s is not a point probe", plan.Explain(node))
	}
	cfg := BuildConfig{Pool: NewPagePool()}
	probe := func() {
		rows, err := runPull(node, db, cfg)
		if err != nil || len(rows) != 1 || rows[0][0].Int() != 420 {
			t.Fatalf("probe: %v, %v", rows, err)
		}
	}
	// 14 before scans went filter-first, on this drive; 13 since the index
	// scan reads its heap hit in place under the latch (Heap.Visit) instead
	// of copying the record out. Still 13 with pk_acct unique, the plan
	// plan.PointProbe accepts.
	const want = 13
	if n := testing.AllocsPerRun(500, probe); n > want {
		t.Fatalf("point probe allocates %.0f times per run, want at most %d", n, want)
	}
}
