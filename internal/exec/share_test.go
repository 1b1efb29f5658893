package exec

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"stagedb/internal/catalog"
	"stagedb/internal/plan"
	"stagedb/internal/storage"
	"stagedb/internal/value"
)

// shareDB builds one wide table spanning many heap pages.
func shareDB(t *testing.T, rows int) *testDB {
	t.Helper()
	db := newTestDB()
	db.createTable(t, "CREATE TABLE items (id INT PRIMARY KEY, grp INT, pad TEXT)")
	pad := make([]byte, 200)
	for i := range pad {
		pad[i] = 'x'
	}
	for i := 0; i < rows; i++ {
		db.insert(t, "items", value.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 5)),
			value.NewText(string(pad)),
		})
	}
	return db
}

// volcano runs q through the pull driver (never shared) as ground truth.
func (db *testDB) volcano(t *testing.T, q string) []value.Row {
	t.Helper()
	return db.query(t, q, plan.Options{})
}

// runShared executes q through RunStaged with the given share manager.
func runShared(t *testing.T, db *testDB, shared *SharedScans, pool *StagePool, q string) []value.Row {
	t.Helper()
	node := db.plan(t, q, plan.Options{})
	rows, err := RunStaged(node, db, pool, StagedOptions{PageRows: 8, BufferPages: 2, Shared: shared})
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return rows
}

// TestSharedScanConcurrentIdentical runs N simultaneous identical queries
// through the shared manager on both pool sizes and checks each result
// matches the unshared baseline row-for-row (as multisets: a wrapped
// consumer sees rows in a rotated order).
func TestSharedScanConcurrentIdentical(t *testing.T) {
	db := shareDB(t, 600)
	q := "SELECT id, grp FROM items"
	want := db.volcano(t, q)

	onEachPool(t, func(t *testing.T, pool *StagePool) {
		shared := NewSharedScans(2, nil)
		const n = 8
		results := make([][]value.Row, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				node := db.plan(t, q, plan.Options{})
				rows, err := RunStaged(node, db, pool, StagedOptions{PageRows: 8, BufferPages: 2, Shared: shared})
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = rows
			}(i)
		}
		wg.Wait()
		for i, rows := range results {
			if t.Failed() {
				break
			}
			if len(rows) != len(want) {
				t.Fatalf("consumer %d: %d rows, want %d", i, len(rows), len(want))
			}
			sameRows(t, rows, want)
		}
	})
}

// TestSharedScanDifferentFilters checks per-consumer predicates apply
// locally: concurrent differently-filtered queries over one scan registry
// each match their own unshared baseline.
func TestSharedScanDifferentFilters(t *testing.T) {
	db := shareDB(t, 600)
	queries := []string{
		"SELECT id FROM items WHERE grp = 0",
		"SELECT id FROM items WHERE grp = 1",
		"SELECT id FROM items WHERE id < 100",
		"SELECT id, grp FROM items WHERE id >= 300 AND grp = 2",
	}
	wants := make([][]value.Row, len(queries))
	for i, q := range queries {
		wants[i] = db.volcano(t, q)
	}
	// Force synchronized seq scans (the id predicates would
	// otherwise pick the primary-key index).
	opt := plan.Options{DisableIndex: true}

	pool := newTestPool(t)
	shared := NewSharedScans(2, nil)
	results := make([][]value.Row, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			node := db.plan(t, q, opt)
			rows, err := RunStaged(node, db, pool, StagedOptions{PageRows: 8, BufferPages: 2, Shared: shared})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = rows
		}(i, q)
	}
	wg.Wait()
	for i := range queries {
		if t.Failed() {
			break
		}
		sameRows(t, results[i], wants[i])
	}
}

// TestSharedScanSelfJoin: two scans of the same table inside ONE pipeline
// (hash join build+probe), the probe side waiting while the build side
// drains, must keep the query correct and finishing.
func TestSharedScanSelfJoin(t *testing.T) {
	db := shareDB(t, 300)
	q := "SELECT a.id FROM items a JOIN items b ON a.id = b.id WHERE b.grp = 3"
	want := db.volcano(t, q)

	onEachPool(t, func(t *testing.T, pool *StagePool) {
		shared := NewSharedScans(1, nil)
		opt := plan.Options{DisableIndex: true}
		node := db.plan(t, q, opt)
		rows, err := RunStaged(node, db, pool, StagedOptions{PageRows: 8, BufferPages: 1, Shared: shared})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, rows, want)
	})
}

// openSyncScan builds the scan of node as the staged driver would with
// sharing on, and opens it (registering it with shared).
func openSyncScan(t *testing.T, db *testDB, node *plan.SeqScan, shared *SharedScans) *seqScan {
	t.Helper()
	op, err := BuildNode(node, nil, db, BuildConfig{PageRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	sc := op.(*seqScan)
	sc.shared = shared
	if err := sc.Open(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	return sc
}

// TestSyncScanStartsAtReportedPosition drives two scan operators by hand: A
// walks a few pages, then B registers mid-walk. B must start at the page
// index A reported, wrap past the end, and return exactly the Volcano
// multiset — as must A, whichever of the two reads a page first.
func TestSyncScanStartsAtReportedPosition(t *testing.T) {
	db := shareDB(t, 600)
	q := "SELECT id, grp, pad FROM items"
	node := scanOf(t, db.plan(t, q, plan.Options{}))
	want := db.volcano(t, q)
	h := db.heaps["items"]
	pages := h.PageIDs()
	if len(pages) < 4 {
		t.Fatalf("need several pages, have %d", len(pages))
	}
	shared := NewSharedScans(0, nil)

	next := func(who string, sc *seqScan, acc []value.Row) ([]value.Row, bool) {
		t.Helper()
		pg, err := sc.Next()
		if err != nil {
			t.Fatalf("%s: %v", who, err)
		}
		if pg == nil {
			return acc, false
		}
		for i := 0; i < pg.Len(); i++ {
			acc = append(acc, pg.Row(i).Clone())
		}
		pg.Release()
		return acc, true
	}
	a := openSyncScan(t, db, node, shared)
	var rowsA []value.Row
	for i := 0; i < 3; i++ {
		var ok bool
		if rowsA, ok = next("A", a, rowsA); !ok {
			t.Fatal("A ended early")
		}
	}
	reported := int(a.reg.next.Load())
	if reported == 0 {
		t.Fatal("A walked three pages but reports position 0")
	}

	b := openSyncScan(t, db, node, shared)
	if b.pageIdx != reported {
		t.Fatalf("B starts at page %d, A reported %d", b.pageIdx, reported)
	}
	// B's first row is the first record of the page A reported.
	var first value.Row
	h.ScanPage(pages[reported], func(_ storage.RID, rec []byte) bool {
		first = decodeVersion(t, node.Table.Schema, rec)
		return false
	})
	rowsB, ok := next("B", b, nil)
	if !ok || rowsB[0][0].Int() != first[0].Int() {
		t.Fatalf("B's first row %v, want the first row of page %d: %v", rowsB[:1], reported, first)
	}
	if st := shared.Stats(); st.Starts != 1 || st.Attaches != 1 || st.Wraps != 1 || st.Detaches != 0 {
		t.Fatalf("stats %+v, want one start and one wrapping attach, nothing detached", st)
	}
	// Alternate until both ends: each walks its own page list, so neither
	// waits for the other.
	for moreA, moreB := true, true; moreA || moreB; {
		if moreA {
			rowsA, moreA = next("A", a, rowsA)
		}
		if moreB {
			rowsB, moreB = next("B", b, rowsB)
		}
	}
	sameRows(t, rowsA, want)
	sameRows(t, rowsB, want)
	if st := shared.Stats(); st.Detaches != 2 || st.PagesDecoded != int64(2*len(pages)) || st.PagesDelivered != st.PagesDecoded {
		t.Fatalf("stats %+v, want 2 detaches and %d pages walked", st, 2*len(pages))
	}
}

// TestSyncScanStartsAtReportedPositionThroughPipeline is the same through
// whole pipelines: query A is read two pages in and left unread, query B runs
// to completion meanwhile — it starts past page 0 and needs nothing from A —
// and both return the Volcano multiset.
func TestSyncScanStartsAtReportedPositionThroughPipeline(t *testing.T) {
	db := shareDB(t, 600)
	q := "SELECT id, grp, pad FROM items"
	want := db.volcano(t, q)

	onEachPool(t, func(t *testing.T, pool *StagePool) {
		shared := NewSharedScans(0, nil)
		opts := StagedOptions{PageRows: 8, BufferPages: 1, Shared: shared}
		opt := plan.Options{DisableIndex: true}

		curA, err := RunStagedCursor(db.plan(t, q, opt), db, pool, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer curA.Close()
		var rowsA []value.Row
		takeA := func() bool {
			pg, err := curA.NextPage()
			if err != nil {
				t.Fatal(err)
			}
			if pg == nil {
				return false
			}
			for i := 0; i < pg.Len(); i++ {
				rowsA = append(rowsA, pg.Row(i).Clone())
			}
			pg.Release()
			return true
		}
		for i := 0; i < 2; i++ {
			if !takeA() {
				t.Fatal("A ended early")
			}
		}
		rowsB, err := RunStaged(db.plan(t, q, opt), db, pool, opts)
		if err != nil {
			t.Fatal(err)
		}
		if id := rowsB[0][0].Int(); id == 0 {
			t.Fatal("B started at page 0 while A was in flight past it")
		}
		for takeA() {
		}
		sameRows(t, rowsA, want)
		sameRows(t, rowsB, want)
		if st := shared.Stats(); st.Starts != 1 || st.Attaches != 1 || st.Wraps != 1 || st.Detaches != 2 {
			t.Fatalf("stats: %+v, want 1 start, 1 wrapping attach, 2 detaches", st)
		}
	})
}

// TestSyncScanDeregisters: every scan that registers deregisters — those
// run to the end, those a LIMIT stops early, those of a cursor closed after
// one page, and both scans of a self-join — so once the queries are done
// Starts+Attaches == Detaches and the registry holds no heap.
func TestSyncScanDeregisters(t *testing.T) {
	db := shareDB(t, 600)
	opt := plan.Options{DisableIndex: true}
	queries := []string{
		"SELECT id FROM items",
		"SELECT id FROM items LIMIT 3",
		"SELECT pad FROM items WHERE grp = 1 LIMIT 5",
		"SELECT grp, COUNT(*) FROM items GROUP BY grp",
		"SELECT a.id FROM items a JOIN items b ON a.id = b.id WHERE b.grp = 3",
	}
	onEachPool(t, func(t *testing.T, pool *StagePool) {
		shared := NewSharedScans(0, nil)
		opts := StagedOptions{PageRows: 8, BufferPages: 1, Shared: shared}
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			for _, q := range queries {
				wg.Add(1)
				go func(q string) {
					defer wg.Done()
					if _, err := RunStaged(db.plan(t, q, opt), db, pool, opts); err != nil {
						t.Errorf("%s: %v", q, err)
					}
				}(q)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				cur, err := RunStagedCursor(db.plan(t, "SELECT id, grp FROM items", opt), db, pool, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if pg, err := cur.NextPage(); err != nil || pg == nil {
					t.Errorf("abandoned cursor's first page: %v %v", pg, err)
				} else {
					pg.Release()
				}
				if err := cur.Close(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		st := shared.Stats()
		if st.Starts == 0 || st.Starts+st.Attaches != st.Detaches {
			t.Fatalf("stats %+v: want Starts+Attaches == Detaches once the scans are quiet", st)
		}
		shared.mu.Lock()
		left := len(shared.scans)
		shared.mu.Unlock()
		if left != 0 {
			t.Fatalf("%d heaps still registered after every query ended", left)
		}
	})
}

// TestScansStartNoGoroutine: concurrent scans over k different tables run
// on the StagePool's workers alone — a scan in flight adds no goroutine.
func TestScansStartNoGoroutine(t *testing.T) {
	const k = 4
	db := newTestDB()
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("t%d", i)
		db.createTable(t, "CREATE TABLE "+name+" (id INT, pad TEXT)")
		rows := make([]value.Row, 400)
		for j := range rows {
			rows[j] = value.Row{value.NewInt(int64(j)), value.NewText(strings.Repeat("z", 200))}
		}
		db.insert(t, name, rows...)
	}
	pool := newTestPool(t)
	shared := NewSharedScans(0, nil)
	opts := StagedOptions{PageRows: 8, BufferPages: 1, Shared: shared}
	plans := make([]plan.Node, k)
	for i := range plans {
		plans[i] = db.plan(t, fmt.Sprintf("SELECT id, pad FROM t%d", i), plan.Options{})
		// Run each once so every stage has its workers before counting.
		if _, err := RunStaged(plans[i], db, pool, opts); err != nil {
			t.Fatal(err)
		}
	}

	before := runtime.NumGoroutine()
	curs := make([]Cursor, k)
	for i := range curs {
		cur, err := RunStagedCursor(plans[i], db, pool, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		pg, err := cur.NextPage()
		if err != nil || pg == nil {
			t.Fatalf("t%d: first page %v %v", i, pg, err)
		}
		pg.Release()
		curs[i] = cur
	}
	if during := runtime.NumGoroutine(); during > before {
		t.Fatalf("%d scans in flight over %d tables added %d goroutines beyond the stage pool", k, k, during-before)
	}
	if st := shared.Stats(); st.Starts+st.Attaches-st.Detaches != k {
		t.Fatalf("stats %+v: want %d scans in flight", st, k)
	}
}

// TestStreamingScanLimitReadsPrefix: with streaming scans a LIMIT query
// over a cold multi-page table must read only a prefix of its heap pages.
func TestStreamingScanLimitReadsPrefix(t *testing.T) {
	store := storage.NewStore()
	pool := storage.NewPool(store, 4) // tiny pool: every page read hits the store
	db := &testDB{
		cat:     catalog.New(),
		pool:    pool,
		heaps:   map[string]*storage.Heap{},
		indexes: map[string]*storage.BTree{},
	}
	db.createTable(t, "CREATE TABLE fat (id INT, pad TEXT)")
	pad := make([]byte, 400)
	for i := range pad {
		pad[i] = 'p'
	}
	tbl, _ := db.cat.Get("fat")
	h := db.heaps["fat"]
	for i := 0; i < 2000; i++ {
		if _, err := h.Insert(versionOf(t, tbl.Schema, value.Row{value.NewInt(int64(i)), value.NewText(string(pad))})); err != nil {
			t.Fatal(err)
		}
	}
	total := h.Pages()
	if total < 20 {
		t.Fatalf("want a big table, got %d pages", total)
	}

	before := store.Reads()
	node := db.plan(t, "SELECT id FROM fat LIMIT 10", plan.Options{})
	rows, err := runPull(node, db, BuildConfig{PageRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("LIMIT 10 returned %d rows", len(rows))
	}
	readPages := int(store.Reads() - before)
	if readPages > total/4 {
		t.Fatalf("LIMIT 10 read %d of %d heap pages; streaming scans should read a prefix", readPages, total)
	}
}
