package exec

import (
	"sync"
	"testing"
	"time"

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
// locally: concurrent differently-filtered queries over one shared wheel
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
	// Force seq scans over the shared wheel (the id predicates would
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

// TestSharedScanMidAttachWraps drives the manager directly: consumer A
// starts the wheel, drains a few pages, then consumer B attaches mid-scan —
// B must still receive every page exactly once via the circular wrap.
func TestSharedScanMidAttachWraps(t *testing.T) {
	db := shareDB(t, 600)
	tbl, err := db.cat.Get("items")
	if err != nil {
		t.Fatal(err)
	}
	h := db.heaps["items"]
	pages := h.Pages()
	if pages < 4 {
		t.Fatalf("need several pages, have %d", pages)
	}

	shared := NewSharedScans(1, nil)
	// Disable spills for determinism: the wheel must wait for A while B
	// attaches mid-scan.
	shared.stall = time.Minute
	done := make(chan struct{})
	defer close(done)

	a := shared.attach(h, tbl, nil, done)
	// Drain a couple of pages from A so the wheel advances past position 0.
	var rowsA []value.Row
	for i := 0; i < 2; i++ {
		pg, err := a.ex.Next()
		if err != nil || pg == nil {
			t.Fatalf("A page %d: %v %v", i, pg, err)
		}
		rowsA = append(rowsA, pg.Rows...)
	}

	// B attaches mid-scan; with a buffer of 1 the producer cannot be at
	// position 0 again yet.
	b := shared.attach(h, tbl, nil, done)
	drain := func(c *scanConsumer, acc []value.Row) []value.Row {
		for {
			pg, err := c.ex.Next()
			if err != nil {
				t.Fatal(err)
			}
			if pg == nil {
				if err := c.takeErr(); err != nil {
					t.Fatal(err)
				}
				// A spill (possible under a loaded scheduler) hands the
				// remainder over as a continuation; fold it in.
				pages, pos, left := c.continuation()
				for ; left > 0; left-- {
					h.ScanPage(pages[pos], func(_ storage.RID, rec []byte) bool {
						row, err := storage.DecodeRow(tbl.Schema, rec, nil)
						if err != nil {
							t.Error(err)
							return false
						}
						acc = append(acc, row)
						return true
					})
					pos++
					if pos >= len(pages) {
						pos = 0
					}
				}
				return acc
			}
			acc = append(acc, pg.Rows...)
		}
	}
	var rowsB []value.Row
	// Drain concurrently: with buffers of one page, A and B gate each
	// other's progress through the shared wheel.
	ch := make(chan struct{})
	go func() {
		rowsB = drain(b, nil)
		close(ch)
	}()
	rowsA = drain(a, rowsA)
	<-ch

	want := db.volcano(t, "SELECT id, grp, pad FROM items")
	sameRows(t, rowsA, want)
	sameRows(t, rowsB, want)

	st := shared.Stats()
	if st.Starts != 1 || st.Attaches != 1 {
		t.Fatalf("stats: %+v, want 1 start + 1 attach", st)
	}
	if st.Wraps != 1 {
		t.Fatalf("B should have wrapped: %+v", st)
	}
}

// TestSharedScanAbandonDoesNotStall: a LIMIT-style consumer that stops
// reading and closes must detach without wedging the other consumer.
func TestSharedScanAbandonDoesNotStall(t *testing.T) {
	db := shareDB(t, 600)
	tbl, _ := db.cat.Get("items")
	h := db.heaps["items"]

	shared := NewSharedScans(1, nil)
	// Make genuine stalls effectively impossible so the test exercises the
	// abandonment path, not the spill path.
	shared.stall = time.Minute

	doneA := make(chan struct{})
	doneB := make(chan struct{})
	defer close(doneB)
	a := shared.attach(h, tbl, nil, doneA)
	b := shared.attach(h, tbl, nil, doneB)

	// A reads one page then abandons (consumer close + pipeline teardown).
	if pg, err := a.ex.Next(); err != nil || pg == nil {
		t.Fatalf("A first page: %v %v", pg, err)
	}
	a.close()
	close(doneA)

	// B must still complete the full circle.
	finished := make(chan []value.Row)
	go func() {
		var rows []value.Row
		for {
			pg, err := b.ex.Next()
			if err != nil {
				t.Error(err)
				break
			}
			if pg == nil {
				break
			}
			rows = append(rows, pg.Rows...)
		}
		finished <- rows
	}()
	select {
	case rows := <-finished:
		want := db.volcano(t, "SELECT id, grp, pad FROM items")
		sameRows(t, rows, want)
	case <-time.After(10 * time.Second):
		t.Fatal("surviving consumer stalled after peer abandoned")
	}
}

// TestSharedScanSelfJoin: two scans of the same table inside ONE pipeline
// (hash join build+probe) would deadlock a purely blocking wheel — the
// build side drains while the probe side stalls. The spill path must keep
// the query correct and finishing.
func TestSharedScanSelfJoin(t *testing.T) {
	db := shareDB(t, 300)
	q := "SELECT a.id FROM items a JOIN items b ON a.id = b.id WHERE b.grp = 3"
	want := db.volcano(t, q)

	onEachPool(t, func(t *testing.T, pool *StagePool) {
		shared := NewSharedScans(1, nil)
		shared.stall = 2 * time.Millisecond
		opt := plan.Options{DisableIndex: true}
		node := db.plan(t, q, opt)
		rows, err := RunStaged(node, db, pool, StagedOptions{PageRows: 8, BufferPages: 1, Shared: shared})
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, rows, want)
	})
}

// TestSharedScanMidAttachWrapsThroughPipeline is the mid-attach wrap driven
// through whole pipelines: query A starts the wheel and stops reading, query
// B attaches mid-scan while A's scan task is parked, and both must see every
// row exactly once. With spills disabled the two scan tasks gate each other
// through the wheel, so on the one-worker pool a task that blocked instead
// of yielding would wedge the fscan stage.
func TestSharedScanMidAttachWrapsThroughPipeline(t *testing.T) {
	db := shareDB(t, 600)
	q := "SELECT id, grp, pad FROM items"
	want := db.volcano(t, q)

	onEachPool(t, func(t *testing.T, pool *StagePool) {
		shared := NewSharedScans(1, nil)
		shared.stall = time.Minute
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
				rowsA = append(rowsA, pg.Row(i))
			}
			pg.Release()
			return true
		}
		// Two result pages prove the wheel moved past position 0; then A
		// stops reading, so the wheel waits on A's full buffer.
		for i := 0; i < 2; i++ {
			if !takeA() {
				t.Fatal("A ended early")
			}
		}

		type result struct {
			rows []value.Row
			err  error
		}
		doneB := make(chan result, 1)
		go func() {
			rows, err := RunStaged(db.plan(t, q, opt), db, pool, opts)
			doneB <- result{rows, err}
		}()
		// B's scan task attaches on the fscan worker A's parked task freed.
		deadline := time.Now().Add(10 * time.Second)
		for shared.Stats().Attaches == 0 {
			if time.Now().After(deadline) {
				t.Fatal("B never attached: the fscan worker did not come free")
			}
			time.Sleep(time.Millisecond)
		}
		for takeA() {
		}
		b := <-doneB
		if b.err != nil {
			t.Fatal(b.err)
		}
		sameRows(t, rowsA, want)
		sameRows(t, b.rows, want)
		if st := shared.Stats(); st.Starts != 1 || st.Attaches != 1 || st.Wraps != 1 {
			t.Fatalf("stats: %+v, want 1 start, 1 attach, 1 wrap", st)
		}
	})
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
		rec, err := storage.EncodeRow(tbl.Schema, value.Row{value.NewInt(int64(i)), value.NewText(string(pad))})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Insert(rec); err != nil {
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
