package exec

import (
	"sync"
	"testing"

	"stagedb/internal/plan"
	"stagedb/internal/value"
)

func TestPagePoolRecycleAndCounters(t *testing.T) {
	pp := NewPagePool()
	pg := pp.Get(8)
	if st := pp.Stats(); st.Misses != 1 || st.Outstanding != 1 {
		t.Fatalf("after first Get: %+v", st)
	}
	pg.Rows = append(pg.Rows, value.Row{value.NewInt(1)})
	pg.Release()
	if st := pp.Stats(); st.Recycled != 1 || st.Outstanding != 0 {
		t.Fatalf("after Release: %+v", st)
	}
	// Cycle pages through the pool. sync.Pool may drop an occasional put
	// (it does so deliberately under the race detector), so assert hits
	// statistically rather than per-cycle.
	for i := 0; i < 64; i++ {
		p := pp.Get(8)
		if len(p.Rows) != 0 || p.Sel != nil {
			t.Fatalf("cycle %d: page not reset: rows=%d sel=%v", i, len(p.Rows), p.Sel)
		}
		p.Rows = append(p.Rows, value.Row{value.NewInt(int64(i))})
		p.narrow(func(value.Row) (bool, error) { return true, nil })
		p.Release()
	}
	st := pp.Stats()
	if st.Outstanding != 0 || st.Hits+st.Misses != st.Recycled {
		t.Fatalf("unbalanced after cycling: %+v", st)
	}
	if st.Hits == 0 {
		t.Fatalf("pool never served a recycled page: %+v", st)
	}
}

// TestPageDoubleReleasePanicsUnderRace: race-detector builds refuse to park
// a page that is already in the pool.
func TestPageDoubleReleasePanicsUnderRace(t *testing.T) {
	if !raceEnabled {
		t.Skip("double-release check is race-build only")
	}
	pg := NewPagePool().Get(4)
	pg.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release of a pooled page did not panic")
		}
	}()
	pg.Release()
}

func TestPagePoolNilIsUnpooled(t *testing.T) {
	var pp *PagePool
	pg := pp.Get(4)
	pg.Rows = append(pg.Rows, value.Row{value.NewInt(1)})
	pg.Release()
	pg.Release() // both no-ops; must not panic
	if got := pg.Len(); got != 1 {
		t.Fatalf("unpooled page Len = %d", got)
	}
}

// TestPageNarrowToNothing: a predicate that rejects every row of a page that
// has no selection buffer yet — fresh from the pool, or an unpooled view such
// as the aggregate's output — must leave the page empty, not fully live (a
// nil selection means "all rows").
func TestPageNarrowToNothing(t *testing.T) {
	none := plan.CompiledPredicate(func(value.Row) (bool, error) { return false, nil })
	pages := map[string]*Page{
		"fresh pooled": NewPagePool().Get(4),
		"unpooled":     (*PagePool)(nil).Get(4),
		"view":         {Rows: []value.Row{{value.NewInt(1)}}},
	}
	for name, pg := range pages {
		pg.Rows = append(pg.Rows, value.Row{value.NewInt(7)}, value.Row{value.NewInt(8)})
		if err := pg.narrow(none); err != nil {
			t.Fatal(err)
		}
		if pg.Len() != 0 {
			t.Errorf("%s page: %d rows live after a predicate that rejects all", name, pg.Len())
		}
		pg.Release()
	}
}

func TestPageNarrowAndSelection(t *testing.T) {
	pp := NewPagePool()
	pg := pp.Get(8)
	for i := 0; i < 6; i++ {
		pg.Rows = append(pg.Rows, value.Row{value.NewInt(int64(i))})
	}
	even := plan.CompiledPredicate(func(r value.Row) (bool, error) { return r[0].Int()%2 == 0, nil })
	if err := pg.narrow(even); err != nil {
		t.Fatal(err)
	}
	if pg.Len() != 3 || pg.Row(0)[0].Int() != 0 || pg.Row(2)[0].Int() != 4 {
		t.Fatalf("narrow: len=%d sel=%v", pg.Len(), pg.Sel)
	}
	// Narrowing an already-narrowed page compacts the existing selection.
	big := plan.CompiledPredicate(func(r value.Row) (bool, error) { return r[0].Int() >= 2, nil })
	if err := pg.narrow(big); err != nil {
		t.Fatal(err)
	}
	if pg.Len() != 2 || pg.Row(0)[0].Int() != 2 || pg.Row(1)[0].Int() != 4 {
		t.Fatalf("double narrow: len=%d sel=%v", pg.Len(), pg.Sel)
	}
	// slice applies limit/offset semantics over the selection.
	pg.slice(1, 2)
	if pg.Len() != 1 || pg.Row(0)[0].Int() != 4 {
		t.Fatalf("slice: len=%d", pg.Len())
	}
	pg.Release()
	if st := pp.Stats(); st.Outstanding != 0 {
		t.Fatalf("narrowed page leaked: %+v", st)
	}
}

// leakQueries is the query mix of the page-leak tests: streaming scans,
// filters, joins, aggregates, and (crucially) LIMITs that abandon upstream
// producers mid-page.
var leakQueries = []string{
	"SELECT * FROM emp",
	"SELECT name FROM emp WHERE salary > 85 AND dept = 1",
	"SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.id",
	"SELECT dept, COUNT(*) FROM emp WHERE dept IS NOT NULL GROUP BY dept",
	"SELECT name FROM emp ORDER BY salary DESC LIMIT 2",
	"SELECT id FROM emp LIMIT 1",
	"SELECT DISTINCT dept FROM emp",
	"SELECT e.id FROM emp e JOIN dept d ON e.dept = d.id LIMIT 1",
}

// TestStagedQueriesReturnAllPages is the page-pool leak test: after each
// staged query ends — complete or cut short by LIMIT — every page checked
// out from the pool must have been returned.
func TestStagedQueriesReturnAllPages(t *testing.T) {
	onEachPool(t, func(t *testing.T, sp *StagePool) {
		db := seedDB(t)
		pp := NewPagePool()
		for _, q := range leakQueries {
			node := db.plan(t, q, plan.Options{})
			if _, err := RunStaged(node, db, sp, StagedOptions{PageRows: 2, BufferPages: 1, Pool: pp}); err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			if n := pp.Outstanding(); n != 0 {
				t.Fatalf("%q leaked %d pages (stats %+v)", q, n, pp.Stats())
			}
		}
		if st := pp.Stats(); st.Hits == 0 {
			t.Fatalf("pool never recycled a page: %+v", st)
		}
	})
}

// TestVolcanoQueriesReturnAllPages: the pull driver must recycle too,
// including when a LIMIT stops the pull mid-table.
func TestVolcanoQueriesReturnAllPages(t *testing.T) {
	db := seedDB(t)
	pp := NewPagePool()
	for _, q := range leakQueries {
		node := db.plan(t, q, plan.Options{})
		if _, err := runPull(node, db, BuildConfig{PageRows: 2, Pool: pp}); err != nil {
			t.Fatal(err)
		}
		if n := pp.Outstanding(); n != 0 {
			t.Fatalf("%q leaked %d pages (stats %+v)", q, n, pp.Stats())
		}
	}
}

// TestSharedScanFanOutReturnsAllPages: concurrent synchronized scans of one
// table — including one a LIMIT abandons early — return every page they
// checked out by the time their queries return.
func TestSharedScanFanOutReturnsAllPages(t *testing.T) {
	db := shareDB(t, 400)
	onEachPool(t, func(t *testing.T, sp *StagePool) { sharedFanOutReturnsAllPages(t, db, sp) })
}

func sharedFanOutReturnsAllPages(t *testing.T, db *testDB, sp *StagePool) {
	pp := NewPagePool()
	shared := NewSharedScans(2, pp)
	queries := []string{
		"SELECT id FROM items WHERE grp = 0",
		"SELECT id, grp FROM items",
		"SELECT id FROM items LIMIT 3",
		"SELECT grp, COUNT(*) FROM items GROUP BY grp",
	}
	var wg sync.WaitGroup
	for _, q := range queries {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			node := db.plan(t, q, plan.Options{DisableIndex: true})
			if _, err := RunStaged(node, db, sp, StagedOptions{PageRows: 8, BufferPages: 2, Shared: shared, Pool: pp}); err != nil {
				t.Error(err)
			}
		}(q)
	}
	wg.Wait()
	if n := pp.Outstanding(); n != 0 {
		t.Fatalf("synchronized scans leaked %d pages (stats %+v)", n, pp.Stats())
	}
}
