package exec

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"stagedb/internal/plan"
	"stagedb/internal/value"
)

// The tests in this file check the exchange-page lifetime rule (see
// pagepool.go): a row carved from a page dies with the page, so every
// operator that keeps a row past the page's release must copy it. Each test
// runs its query with 1-row pages drawn from one page pool, on the pull
// driver and on a 1-worker, depth-1 stage pool with 1-page exchange buffers,
// so every page recycles the moment it is consumed and the next page built
// from its storage overwrites a row kept by mistake. Race-detector builds also
// poison recycled storage (pagepool_race.go).

// retainDB holds a(id, k) with k = id mod keys, and b(k, w, tag) with one
// row per key, w = 3k+1 and tag = "t<k>": every value is a function of its
// row's key, so a row that outlived its page shows up as an inconsistent one.
func retainDB(t *testing.T, aRows, keys int) *testDB {
	t.Helper()
	db := newTestDB()
	db.createTable(t, "CREATE TABLE a (id INT PRIMARY KEY, k INT)")
	db.createTable(t, "CREATE TABLE b (k INT PRIMARY KEY, w INT, tag TEXT)")
	rows := make([]value.Row, aRows)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % keys))}
	}
	db.insert(t, "a", rows...)
	rows = make([]value.Row, keys)
	for k := range rows {
		rows[k] = value.Row{value.NewInt(int64(k)), value.NewInt(int64(3*k + 1)), value.NewText(fmt.Sprintf("t%d", k))}
	}
	db.insert(t, "b", rows...)
	return db
}

// onRecycledPages runs q on every driver configuration with 1-row pages from
// one page pool and hands each result to check. workMem 0 is the default.
func onRecycledPages(t *testing.T, db *testDB, q string, workMem int64, check func(t *testing.T, rows []value.Row, spill SpillStats)) {
	t.Helper()
	node := db.plan(t, q, plan.Options{DisableIndex: true})
	tiny := func(t *testing.T) *StagePool {
		sp := NewStagePool(StagePoolConfig{Workers: 1, QueueDepth: 1})
		t.Cleanup(sp.Close)
		return sp
	}
	runs := []struct {
		name string
		run  func(t *testing.T, pp *PagePool, sm *SpillMetrics) ([]value.Row, error)
	}{
		{"volcano", func(t *testing.T, pp *PagePool, sm *SpillMetrics) ([]value.Row, error) {
			return runPull(node, db, BuildConfig{PageRows: 1, Pool: pp, WorkMem: workMem, Spill: sm})
		}},
		{"staged", func(t *testing.T, pp *PagePool, sm *SpillMetrics) ([]value.Row, error) {
			return RunStaged(node, db, tiny(t), StagedOptions{PageRows: 1, BufferPages: 1, Pool: pp, WorkMem: workMem, Spill: sm})
		}},
		{"staged-shared", func(t *testing.T, pp *PagePool, sm *SpillMetrics) ([]value.Row, error) {
			return RunStaged(node, db, tiny(t), StagedOptions{PageRows: 1, BufferPages: 1, Pool: pp, WorkMem: workMem, Spill: sm,
				Shared: NewSharedScans(1, pp)})
		}},
	}
	// sync.Pool may drop a recycled page (under the race detector it drops a
	// random share of them), so a run can finish without a single hit. The
	// query then runs again on the same pool, which now holds that run's
	// pages, until a run recycles one: only such a run exercises the rule.
	const attempts = 5
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			pp := NewPagePool()
			for i := 1; ; i++ {
				sm := &SpillMetrics{}
				rows, err := r.run(t, pp, sm)
				if err != nil {
					t.Fatal(err)
				}
				check(t, rows, sm.Stats())
				if live := sm.Stats().FilesLive(); live != 0 {
					t.Fatalf("%d spill files left after the query", live)
				}
				waitNoPagesOut(t, pp)
				st := pp.Stats()
				if st.Hits > 0 {
					break
				}
				if i == attempts {
					t.Fatalf("no page was recycled in %d runs, the test exercises nothing: %+v", attempts, st)
				}
				t.Logf("run %d recycled no page, running again: %+v", i, st)
			}
		})
	}
}

// waitNoPagesOut fails unless every page checked out of pp comes back. A
// shared scan's producer may still be finishing its lap after the query's
// last consumer detached; it releases its page as it exits.
func waitNoPagesOut(t *testing.T, pp *PagePool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pp.Outstanding() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d pages outstanding after the query: %+v", pp.Outstanding(), pp.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// checkJoinRows asserts every row of SELECT a.id, a.k, b.w, b.tag is
// consistent and each of the n probe rows appears once.
func checkJoinRows(t *testing.T, rows []value.Row, n, keys int) {
	t.Helper()
	if len(rows) != n {
		t.Fatalf("got %d rows, want %d", len(rows), n)
	}
	seen := make([]bool, n)
	for _, r := range rows {
		id, k := r[0].Int(), r[1].Int()
		if r[0].Type() != value.Int || id < 0 || id >= int64(n) || seen[id] || k != id%int64(keys) ||
			r[2].Int() != 3*k+1 || r[3].Text() != fmt.Sprintf("t%d", k) {
			t.Fatalf("inconsistent or repeated join row %v", r)
		}
		seen[id] = true
	}
}

// TestRetainJoinBuildSide: the hash join keeps its whole build side while the
// build pages recycle under it — in memory, and up to the point it goes grace
// (the rows accumulated before the budget ran out are routed to partition
// files only then).
func TestRetainJoinBuildSide(t *testing.T) {
	const q = "SELECT a.id, a.k, b.w, b.tag FROM a JOIN b ON a.k = b.k"
	t.Run("in-memory", func(t *testing.T) {
		const n, keys = 600, 200
		db := retainDB(t, n, keys)
		onRecycledPages(t, db, q, 0, func(t *testing.T, rows []value.Row, spill SpillStats) {
			if spill.JoinSpills != 0 {
				t.Fatalf("in-memory case went grace: %+v", spill)
			}
			checkJoinRows(t, rows, n, keys)
		})
	})
	t.Run("grace", func(t *testing.T) {
		const n, keys = 3000, 1500
		db := retainDB(t, n, keys)
		onRecycledPages(t, db, q, MinWorkMem, func(t *testing.T, rows []value.Row, spill SpillStats) {
			if spill.JoinSpills == 0 {
				t.Fatalf("grace case stayed in memory: %+v", spill)
			}
			checkJoinRows(t, rows, n, keys)
		})
	})
}

// TestRetainTopN: the Top-N heap keeps its k rows across the whole input.
func TestRetainTopN(t *testing.T) {
	const n, keys = 1000, 400
	db := retainDB(t, n, keys)
	onRecycledPages(t, db, "SELECT id, k FROM a ORDER BY k DESC, id LIMIT 5", 0, func(t *testing.T, rows []value.Row, spill SpillStats) {
		if spill.TopN == 0 {
			t.Fatal("the plan did not use Top-N")
		}
		want := "(399, 399) (799, 399) (398, 398) (798, 398) (397, 397)"
		if got := rowsText(rows); got != want {
			t.Fatalf("got %s, want %s", got, want)
		}
	})
}

// TestRetainDistinct: DISTINCT's group table keeps every first-seen row's
// values.
func TestRetainDistinct(t *testing.T) {
	const n, keys = 900, 300
	db := retainDB(t, n, keys)
	onRecycledPages(t, db, "SELECT DISTINCT k FROM a", 0, func(t *testing.T, rows []value.Row, _ SpillStats) {
		if len(rows) != keys {
			t.Fatalf("DISTINCT returned %d rows, want %d", len(rows), keys)
		}
		seen := make(map[int64]bool)
		for _, r := range rows {
			k := r[0].Int()
			if r[0].Type() != value.Int || k < 0 || k >= keys || seen[k] {
				t.Fatalf("bad or repeated DISTINCT row %v", r)
			}
			seen[k] = true
		}
	})
}

// TestDistinctSpillsUnderWorkMem: DISTINCT is a grouping charged to WorkMem.
// With far more distinct rows than fit in the 64 KB floor it spills
// grace-style and still returns every distinct row exactly once — NULL equal
// to NULL — with no spill file and no page left behind, on every driver.
func TestDistinctSpillsUnderWorkMem(t *testing.T) {
	const n = 6000
	db := newTestDB()
	db.createTable(t, "CREATE TABLE d (id INT PRIMARY KEY, k INT, tag TEXT)")
	rows := make([]value.Row, n)
	seen := make(map[string]bool)
	var want []string // the oracle: each distinct (k, tag) once
	for i := range rows {
		k, tag := value.NewInt(int64(i%2500)), value.NewText(fmt.Sprintf("t%d", i%3))
		if i%500 == 7 {
			k = value.NewNull()
		}
		if i%3 == 2 {
			tag = value.NewNull()
		}
		rows[i] = value.Row{value.NewInt(int64(i)), k, tag}
		if s := (value.Row{k, tag}).String(); !seen[s] {
			seen[s] = true
			want = append(want, s)
		}
	}
	db.insert(t, "d", rows...)
	sort.Strings(want)
	onRecycledPages(t, db, "SELECT DISTINCT k, tag FROM d", MinWorkMem, func(t *testing.T, rows []value.Row, spill SpillStats) {
		if spill.AggSpills == 0 {
			t.Fatalf("DISTINCT over %d distinct rows did not spill: %+v", len(want), spill)
		}
		got := rowStrings(rows)
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Fatalf("DISTINCT returned %d rows, want the %d distinct ones", len(got), len(want))
		}
	})
}

// TestRetainDrainedResult: a drained result owns its rows — reading it after
// a hundred more queries have cycled the same pages still shows the values
// it was drained with.
func TestRetainDrainedResult(t *testing.T) {
	const n, keys = 300, 100
	db := retainDB(t, n, keys)
	pp := NewPagePool()
	sp := newTestPool(t)
	run := func(q string) []value.Row {
		rows, err := RunStaged(db.plan(t, q, plan.Options{}), db, sp, StagedOptions{PageRows: 1, BufferPages: 1, Pool: pp})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	first := run("SELECT a.id, a.k, b.w, b.tag FROM a JOIN b ON a.k = b.k")
	pulled, err := runPull(db.plan(t, "SELECT id, k FROM a", plan.Options{}), db, BuildConfig{PageRows: 1, Pool: pp})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		run(fmt.Sprintf("SELECT k, w + %d, tag FROM b", i))
	}
	checkJoinRows(t, first, n, keys)
	sort.Slice(pulled, func(i, j int) bool { return pulled[i][0].Int() < pulled[j][0].Int() })
	for i, r := range pulled {
		if r[0].Int() != int64(i) || r[1].Int() != int64(i%keys) {
			t.Fatalf("pulled row %d reads %v after more queries ran", i, r)
		}
	}
	if st := pp.Stats(); st.Hits == 0 || st.Outstanding != 0 {
		t.Fatalf("page pool %+v: want recycling and no page outstanding", st)
	}
}

// TestSharedScanDecodeAllocatesNothingPerRow: in steady state a
// synchronized scan decodes a heap page into a recycled page's own value
// storage — no allocation per row (a TEXT column would cost its string, so
// the table has none).
func TestSharedScanDecodeAllocatesNothingPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops recycled pages at random under the race detector")
	}
	db := retainDB(t, 2000, 10)
	node := scanOf(t, db.plan(t, "SELECT id, k FROM a", plan.Options{DisableIndex: true}))
	// The premise below — a heap page holds more rows than an output page —
	// needs a page smaller than the width rule's 512 rows.
	op, err := BuildNode(node, nil, db, BuildConfig{PageRows: DefaultPageRows, Pool: NewPagePool()})
	if err != nil {
		t.Fatal(err)
	}
	sc := op.(*seqScan)
	sc.shared = NewSharedScans(0, nil)
	if err := sc.Open(); err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	rows := 0
	decode := func() {
		// Walk heap page 0 again; it holds more rows than an output page, so
		// one Next reads exactly that page and the registration stays live.
		sc.pageIdx, sc.left = 0, 1
		pg, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		rows = pg.Len()
		pg.Release()
	}
	decode() // warm the page pool
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Fatalf("decoding a %d-row heap page allocates %.1f objects, want 0", rows, allocs)
	}
	if rows < 100 {
		t.Fatalf("heap page holds only %d rows: the per-row claim is not measured", rows)
	}
	if sc.reg == nil {
		t.Fatal("the scan deregistered: it did not walk as a synchronized scan")
	}
}

// TestPageCarveRecycles: a recycled page keeps the value storage its rows
// were carved from, so the next producer carves without allocating, while
// storage that grew past maxPageValues is dropped on recycle.
func TestPageCarveRecycles(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops recycled pages at random under the race detector")
	}
	pp := NewPagePool()
	pg := pp.Get(4)
	for i := 0; i < 4; i++ {
		r := pg.carve(3)
		r[0], r[1], r[2] = value.NewInt(int64(i)), value.Value{}, value.Value{}
		pg.Rows = append(pg.Rows, r)
	}
	if r := pg.Row(2); r[0].Int() != 2 || cap(r) != 3 {
		t.Fatalf("carved row %v has cap %d, want 3", r, cap(r))
	}
	pg.Release()
	pg = pp.Get(4)
	if cap(pg.vals.chunk) < 12 || len(pg.vals.chunk) != 0 {
		t.Fatalf("recycled page storage len %d cap %d, want empty with cap >= 12", len(pg.vals.chunk), cap(pg.vals.chunk))
	}
	if allocs := testing.AllocsPerRun(10, func() { pg.carve(3); pg.uncarve(3) }); allocs != 0 {
		t.Fatalf("carving from recycled storage allocates %.1f objects", allocs)
	}
	pg.carve(maxPageValues + 1)
	pg.Release()
	pg = pp.Get(4)
	defer pg.Release()
	if cap(pg.vals.chunk) != 0 {
		t.Fatalf("a page kept %d values of storage past the %d cap", cap(pg.vals.chunk), maxPageValues)
	}
}

// rowsText renders rows in order.
func rowsText(rows []value.Row) string {
	s := make([]string, len(rows))
	for i, r := range rows {
		s[i] = r.String()
	}
	return strings.Join(s, " ")
}
