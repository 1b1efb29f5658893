package stagedb

// clientstream_test.go pins the streaming client API: Rows cursors fed
// page-at-a-time from the execute stage, early Close abandoning the
// producing pipeline after a prefix of the heap, context cancellation
// propagating through the staged pipeline, placeholders, and prepared
// statements entering the pipeline at the execute stage.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// loadBig creates table `big` with n small rows (id INT PRIMARY KEY, v INT).
func loadBig(tb testing.TB, db *DB, n int) {
	tb.Helper()
	if _, err := db.ExecContext(tb.Context(), "CREATE TABLE big (id INT PRIMARY KEY, v INT)"); err != nil {
		tb.Fatal(err)
	}
	for start := 0; start < n; start += 1000 {
		var b strings.Builder
		b.WriteString("INSERT INTO big VALUES ")
		for i := start; i < start+1000 && i < n; i++ {
			if i > start {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d)", i, i%97)
		}
		if _, err := db.ExecContext(tb.Context(), b.String()); err != nil {
			tb.Fatal(err)
		}
	}
	if err := db.Analyze("big"); err != nil {
		tb.Fatal(err)
	}
}

// waitPoolBalanced polls until every exchange page is back in the pool.
func waitPoolBalanced(t *testing.T, db *DB) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for db.PagePoolStats().Outstanding != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("page pool unbalanced: %+v", db.PagePoolStats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientStreaming is the end-to-end acceptance test for the streaming
// API on both engines: a SELECT over a 100k-row table read through a Rows
// cursor and Closed after the first page touches only a prefix of the heap
// (IOStats), leaves PagePoolStats.Outstanding at zero, and (staged) detaches
// its consumer from the shared scan; a canceled context mid-stream surfaces
// as Rows.Err and leaks nothing either.
func TestClientStreaming(t *testing.T) {
	const rows = 100_000
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"staged", Options{PoolFrames: 16}},
		{"threaded", Options{Mode: Threaded, Workers: 2, PoolFrames: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			db := mustOpen(t, mode.opts)
			defer db.Close()
			loadBig(t, db, rows)
			ctx := context.Background()

			// Baseline: a fully drained streaming query sees every row and
			// reads the whole heap through the tiny buffer pool.
			readsBefore, _ := db.IOStats()
			cur, err := db.QueryContext(ctx, "SELECT id, v FROM big")
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for cur.Next() {
				n++
			}
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
			if n != rows {
				t.Fatalf("full stream saw %d rows, want %d", n, rows)
			}
			readsAfter, _ := db.IOStats()
			fullReads := readsAfter - readsBefore
			if fullReads == 0 {
				t.Fatal("full scan read no heap pages; shrink PoolFrames")
			}

			// Early close: consume one page worth of rows, then Close. The
			// pipeline is abandoned like a satisfied LIMIT — only a prefix of
			// the heap is read and every pooled page returns.
			readsBefore, _ = db.IOStats()
			early, err := db.QueryContext(ctx, "SELECT id, v FROM big")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10 && early.Next(); i++ {
			}
			var id, v int64
			if err := early.Scan(&id, &v); err != nil {
				t.Fatal(err)
			}
			if err := early.Close(); err != nil {
				t.Fatal(err)
			}
			if err := early.Err(); err != nil {
				t.Fatalf("early close is not an error: %v", err)
			}
			waitPoolBalanced(t, db)
			readsAfter, _ = db.IOStats()
			if prefix := readsAfter - readsBefore; prefix*4 >= fullReads {
				t.Fatalf("early close read %d heap pages, full scan read %d; want a small prefix", prefix, fullReads)
			}
			if mode.opts.Mode == Staged {
				if st := db.ScanShares(); st.Starts == 0 || st.Detaches == 0 {
					t.Fatalf("shared scan should have started and detached the abandoned consumer: %+v", st)
				}
			}

			// Cancellation mid-stream: the pipeline fails between pages, the
			// cursor reports the context error, and nothing leaks.
			cctx, cancel := context.WithCancel(ctx)
			mid, err := db.QueryContext(cctx, "SELECT id, v FROM big")
			if err != nil {
				cancel()
				t.Fatal(err)
			}
			if !mid.Next() {
				t.Fatalf("no first row before cancel: %v", mid.Err())
			}
			cancel()
			for mid.Next() {
			}
			if !errors.Is(mid.Err(), context.Canceled) {
				t.Fatalf("Err after cancel = %v, want context.Canceled", mid.Err())
			}
			if !errors.Is(mid.Close(), context.Canceled) {
				t.Fatal("Close after cancel should surface the cancellation")
			}
			waitPoolBalanced(t, db)

			// Cancellation before submit: the request fails between stages
			// without executing.
			dead, deadCancel := context.WithCancel(ctx)
			deadCancel()
			if _, err := db.QueryContext(dead, "SELECT id FROM big"); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-canceled query = %v, want context.Canceled", err)
			}
		})
	}
}

// TestQueryRejectsNonSelect: QueryContext must not silently execute DML.
func TestQueryRejectsNonSelect(t *testing.T) {
	for _, mode := range []Mode{Staged, Threaded} {
		db := mustOpen(t, Options{Mode: mode})
		if _, err := db.ExecContext(t.Context(), "CREATE TABLE q (id INT)"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.QueryContext(t.Context(), "INSERT INTO q VALUES (1)"); err == nil || !strings.Contains(err.Error(), "SELECT") {
			t.Fatalf("mode %d: QueryContext of DML should fail naming SELECT, got %v", mode, err)
		}
		if _, err := db.QueryContext(t.Context(), "DROP TABLE q"); err == nil {
			t.Fatalf("mode %d: QueryContext of DDL should fail", mode)
		}
		// The table must be untouched by the rejected INSERT.
		res, err := db.ExecContext(t.Context(), "SELECT COUNT(*) FROM q")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int() != 0 {
			t.Fatalf("mode %d: rejected DML still executed", mode)
		}
		db.Close()
	}
}

// TestPlaceholders: `?` parameters bind through the unprepared path for both
// DML and SELECT, and argument-count mismatches fail cleanly.
func TestPlaceholders(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	if _, err := db.ExecContext(t.Context(), "CREATE TABLE p (id INT PRIMARY KEY, name TEXT, score FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(t.Context(), "INSERT INTO p VALUES (?, ?, ?), (?, ?, ?)",
		1, "ann", 9.5, 2, "bob", 8.25); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(t.Context(), "UPDATE p SET score = score + ? WHERE name = ?", 0.5, "bob"); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecContext(t.Context(), "SELECT name FROM p WHERE score >= ? ORDER BY id", 8.75)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if _, err := db.ExecContext(t.Context(), "SELECT * FROM p WHERE id = ?"); err == nil {
		t.Fatal("missing argument should fail")
	}
	if _, err := db.ExecContext(t.Context(), "SELECT * FROM p WHERE id = ?", 1, 2); err == nil {
		t.Fatal("extra argument should fail")
	}
}

// stageServiced reads one stage's service count from the monitoring
// surface once the stage has settled. A stage worker records a service
// after the packet's Run returns, and Run may already have delivered the
// caller's result, so a read right after a call can miss that call's
// service. It waits, up to a bound, until every packet the stage dequeued
// has its service recorded; past the bound it returns the count as it is.
func stageServiced(db *DB, name string) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		serviced, dequeued := 0, int64(0)
		for _, s := range db.Stages() {
			if s.Name == name {
				serviced, dequeued = s.Serviced, s.Dequeued
			}
		}
		if int64(serviced) == dequeued || time.Now().After(deadline) {
			return serviced
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPreparedEntersAtExecute is the prepared-statement acceptance test: a
// statement re-executed 100 times increments the execute stage's service
// count by ~100 while the parse and optimize stages stay at their pre-loop
// counts — the request enters the pipeline at the execute stage.
func TestPreparedEntersAtExecute(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	if err := db.ExecScript(t.Context(), `
		CREATE TABLE acct (id INT PRIMARY KEY, bal INT);
		INSERT INTO acct VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50);
	`); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare(t.Context(), "SELECT bal FROM acct WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()

	parse0, opt0, exec0 := stageServiced(db, "parse"), stageServiced(db, "optimize"), stageServiced(db, "execute")
	const runs = 100
	for i := 0; i < runs; i++ {
		id := i%5 + 1
		rows, err := stmt.QueryContext(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		var bal int64
		if !rows.Next() {
			t.Fatalf("no row for id %d", id)
		}
		if err := rows.Scan(&bal); err != nil {
			t.Fatal(err)
		}
		if bal != int64(id*10) {
			t.Fatalf("id %d: bal = %d", id, bal)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if d := stageServiced(db, "parse") - parse0; d != 0 {
		t.Fatalf("parse stage serviced %d more packets; prepared executions must skip it", d)
	}
	if d := stageServiced(db, "optimize") - opt0; d != 0 {
		t.Fatalf("optimize stage serviced %d more packets; prepared executions must skip it", d)
	}
	if d := stageServiced(db, "execute") - exec0; d < runs {
		t.Fatalf("execute stage serviced %d more packets, want >= %d", d, runs)
	}
	if st := db.PlanCacheStats(); st.Hits < runs {
		t.Fatalf("plan cache hits = %d, want >= %d (every execution should hit)", st.Hits, runs)
	}
	// The prepare pseudo-stage surfaces the same counters via Stages().
	found := false
	for _, s := range db.Stages() {
		if s.Name == "prepare" && s.Counters["prepare.hits"] >= runs {
			found = true
		}
	}
	if !found {
		t.Fatal("Stages() should expose a prepare pseudo-stage with hit counters")
	}
}

// TestPreparedInvalidation: DDL and Analyze invalidate cached plans; the
// next execution re-prepares transparently and still returns correct rows.
func TestPreparedInvalidation(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	if err := db.ExecScript(t.Context(), `
		CREATE TABLE inv (id INT PRIMARY KEY, v INT);
		INSERT INTO inv VALUES (1, 100), (2, 200), (3, 300);
	`); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare(t.Context(), "SELECT v FROM inv WHERE v >= ?")
	if err != nil {
		t.Fatal(err)
	}
	check := func(want int) {
		t.Helper()
		res, err := stmt.ExecContext(t.Context(), 150)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != want {
			t.Fatalf("rows = %d, want %d", len(res.Rows), want)
		}
	}
	check(2)
	inv0 := db.PlanCacheStats().Invalidations
	if _, err := db.ExecContext(t.Context(), "CREATE INDEX idx_v ON inv (v)"); err != nil {
		t.Fatal(err)
	}
	check(2) // re-prepared against the new schema version
	if st := db.PlanCacheStats(); st.Invalidations <= inv0 {
		t.Fatalf("DDL should invalidate cached plans: %+v", st)
	}
	inv1 := db.PlanCacheStats().Invalidations
	if err := db.Analyze("inv"); err != nil {
		t.Fatal(err)
	}
	check(2)
	if st := db.PlanCacheStats(); st.Invalidations <= inv1 {
		t.Fatalf("Analyze should invalidate cached plans: %+v", st)
	}
}

// TestPreparedDML: prepared non-SELECT statements bind arguments into a
// private AST copy and execute at the execute stage.
func TestPreparedDML(t *testing.T) {
	for _, mode := range []Mode{Staged, Threaded} {
		db := mustOpen(t, Options{Mode: mode})
		if _, err := db.ExecContext(t.Context(), "CREATE TABLE d (id INT PRIMARY KEY, v INT)"); err != nil {
			t.Fatal(err)
		}
		ins, err := db.Prepare(t.Context(), "INSERT INTO d VALUES (?, ?)")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			res, err := ins.ExecContext(t.Context(), i, i*i)
			if err != nil {
				t.Fatal(err)
			}
			if res.Affected != 1 {
				t.Fatalf("affected = %d", res.Affected)
			}
		}
		if _, err := ins.QueryContext(t.Context(), 11, 121); err == nil {
			t.Fatalf("mode %d: QueryContext on a prepared INSERT should fail", mode)
		}
		res, err := db.ExecContext(t.Context(), "SELECT COUNT(*), SUM(v) FROM d")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int() != 10 || res.Rows[0][1].Int() != 285 {
			t.Fatalf("mode %d: rows: %v", mode, res.Rows)
		}
		db.Close()
	}
}

// TestPreparedNullBound: a NULL argument bound to an indexed-column
// comparison matches nothing — it must not degrade to an open index bound
// that returns the whole table (prepared and unprepared answers agree).
func TestPreparedNullBound(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	if err := db.ExecScript(t.Context(), `
		CREATE TABLE nb (id INT PRIMARY KEY, v INT);
		INSERT INTO nb VALUES (1, 10), (2, 20), (3, 30);
	`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT id FROM nb WHERE id = ?",
		"SELECT id FROM nb WHERE id < ?",
		"SELECT id FROM nb WHERE id BETWEEN ? AND ?",
	} {
		stmt, err := db.Prepare(t.Context(), q)
		if err != nil {
			t.Fatal(err)
		}
		args := make([]any, stmt.NumParams())
		res, err := stmt.ExecContext(t.Context(), args...)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("%s with NULL argument(s) returned %d rows, want 0", q, len(res.Rows))
		}
		if err := stmt.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExclusiveIndexBounds: < and > on an indexed column must exclude the
// endpoint — the inclusive B+tree range is narrowed by a residual filter —
// on both the literal and the prepared path.
func TestExclusiveIndexBounds(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	if _, err := db.ExecContext(t.Context(), "CREATE TABLE xb (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := db.ExecContext(t.Context(), "INSERT INTO xb VALUES (?, ?)", i, i); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		q    string
		arg  int
		want int
	}{
		{"SELECT id FROM xb WHERE id < ?", 5, 5},  // 0..4
		{"SELECT id FROM xb WHERE id > ?", 5, 4},  // 6..9
		{"SELECT id FROM xb WHERE id <= ?", 5, 6}, // 0..5
		{"SELECT id FROM xb WHERE id >= ?", 5, 5}, // 5..9
	}
	for _, tc := range cases {
		res, err := db.ExecContext(t.Context(), tc.q, tc.arg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != tc.want {
			t.Fatalf("literal %s(%d): %d rows, want %d", tc.q, tc.arg, len(res.Rows), tc.want)
		}
		stmt, err := db.Prepare(t.Context(), tc.q)
		if err != nil {
			t.Fatal(err)
		}
		res, err = stmt.ExecContext(t.Context(), tc.arg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != tc.want {
			t.Fatalf("prepared %s(%d): %d rows, want %d", tc.q, tc.arg, len(res.Rows), tc.want)
		}
		if err := stmt.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanAfterExhaustionErrors: Scan without a successful Next — including
// after the result set ended or the cursor closed — must error, not re-read
// the last row.
func TestScanAfterExhaustionErrors(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	if err := db.ExecScript(t.Context(), "CREATE TABLE se (id INT); INSERT INTO se VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryContext(context.Background(), "SELECT id FROM se")
	if err != nil {
		t.Fatal(err)
	}
	var id int64
	for rows.Next() {
		if err := rows.Scan(&id); err != nil {
			t.Fatal(err)
		}
	}
	if err := rows.Scan(&id); err == nil {
		t.Fatal("Scan after exhaustion must error")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Scan(&id); err == nil {
		t.Fatal("Scan after Close must error")
	}
}

// TestOpenValidatesOptions: Open fails on option values no configuration
// can honor instead of silently misbehaving.
func TestOpenValidatesOptions(t *testing.T) {
	for _, opts := range []Options{
		{Mode: Mode(7)},
		{Workers: -1},
		{PageRows: -8},
		{BufferPages: -1},
		{PoolFrames: -2},
		{ExecWorkers: -1},
		{ExecQueueDepth: -1},
	} {
		if _, err := Open(opts); err == nil {
			t.Fatalf("Open(%+v) should fail", opts)
		}
	}
}

// TestSpillingSortStreamLeakFree is the memory-bounded execution acceptance
// test: an ORDER BY over 100k rows far beyond a tiny WorkMem completes by
// spilling runs (SpillStats shows them), matches the in-memory ordering
// exactly, and every termination path — full drain, mid-merge Rows.Close,
// context cancellation — removes all temp run files and returns
// PagePoolStats.Outstanding to zero.
func TestSpillingSortStreamLeakFree(t *testing.T) {
	const rows = 100_000
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"staged", Options{WorkMem: 64 << 10, PoolFrames: 16}},
		{"threaded", Options{Mode: Threaded, Workers: 2, WorkMem: 64 << 10, PoolFrames: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			db := mustOpen(t, mode.opts)
			defer db.Close()
			loadBig(t, db, rows)
			ctx := context.Background()
			q := "SELECT id, v FROM big ORDER BY v"

			// Full drain: spilled, complete, and ordered exactly like the
			// in-memory sort — by (v, arrival), arrival being id order here.
			cur, err := db.QueryContext(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			lastV, lastID := int64(-1), int64(-1)
			for cur.Next() {
				var id, v int64
				if err := cur.Scan(&id, &v); err != nil {
					t.Fatal(err)
				}
				if v < lastV || (v == lastV && id <= lastID) {
					t.Fatalf("row %d: (v=%d id=%d) out of order after (v=%d id=%d)", n, v, id, lastV, lastID)
				}
				lastV, lastID = v, id
				n++
			}
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
			if n != rows {
				t.Fatalf("spilled ORDER BY returned %d rows, want %d", n, rows)
			}
			st := db.SpillStats()
			if st.SortSpills == 0 || st.SortRuns == 0 {
				t.Fatalf("ORDER BY over %d rows with WorkMem=64KB must spill: %+v", rows, st)
			}
			if live := st.FilesLive(); live != 0 {
				t.Fatalf("%d spill files live after full drain", live)
			}
			waitPoolBalanced(t, db)

			// Mid-merge close (the k-way merge is mid-flight, run files on
			// disk) and mid-stream cancel must both remove every file.
			assertCloseAndCancelLeakFree(t, db, q)
		})
	}
}

// TestKeylessJoinStreamLeakFree: under a 64 KB WorkMem a join with no equi
// key holds its over-budget build side resident instead of spilling (one
// bucket cannot be partitioned), returns exactly the closed-form count, and
// an early Rows.Close or a mid-stream cancel of a 5M-row cross join leaves
// no exchange page out of the pool and no spill file behind.
func TestKeylessJoinStreamLeakFree(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"staged", Options{WorkMem: 64 << 10, PoolFrames: 16}},
		{"threaded", Options{Mode: Threaded, Workers: 2, WorkMem: 64 << 10, PoolFrames: 16}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			db := mustOpen(t, mode.opts)
			defer db.Close()
			loadBig(t, db, 5000) // v = id % 97
			if _, err := db.ExecContext(t.Context(), "CREATE TABLE small (id INT, w INT)"); err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			b.WriteString("INSERT INTO small VALUES ")
			for j := 0; j < 1000; j++ {
				if j > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "(%d, %d)", j, j%100)
			}
			if _, err := db.ExecContext(t.Context(), b.String()); err != nil {
				t.Fatal(err)
			}

			// Residual-only join, fully drained: each probe row with v matches
			// the 10*(99-v) small rows whose w exceeds it.
			res, err := db.ExecContext(t.Context(), "SELECT COUNT(*) FROM big b JOIN small s ON b.v < s.w WHERE b.id < 500")
			if err != nil {
				t.Fatal(err)
			}
			want := int64(0)
			for i := 0; i < 500; i++ {
				want += int64(10 * (99 - i%97))
			}
			if got := res.Rows[0][0].Int(); got != want {
				t.Fatalf("COUNT(*) = %d, want %d", got, want)
			}
			if st := db.SpillStats(); st.JoinSpills != 0 || st.FilesCreated != 0 {
				t.Fatalf("a key-less join spilled: %+v", st)
			}
			waitPoolBalanced(t, db)

			assertCloseAndCancelLeakFree(t, db, "SELECT b.id, s.id FROM big b, small s")
		})
	}
}

// assertCloseAndCancelLeakFree streams q twice — closing the cursor after a
// few rows, then canceling its context after the first — and requires each
// abandoned pipeline to leave no spill file and no exchange page out of the
// pool.
func assertCloseAndCancelLeakFree(t *testing.T, db *DB, q string) {
	t.Helper()
	ctx := context.Background()
	early, err := db.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && early.Next(); i++ {
	}
	if err := early.Close(); err != nil {
		t.Fatal(err)
	}
	if live := db.SpillStats().FilesLive(); live != 0 {
		t.Fatalf("%d spill files live after early Close", live)
	}
	waitPoolBalanced(t, db)

	cctx, cancel := context.WithCancel(ctx)
	mid, err := db.QueryContext(cctx, q)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if !mid.Next() {
		t.Fatalf("no first row before cancel: %v", mid.Err())
	}
	cancel()
	for mid.Next() {
	}
	if !errors.Is(mid.Err(), context.Canceled) {
		t.Fatalf("Err after cancel = %v, want context.Canceled", mid.Err())
	}
	if err := mid.Close(); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Close after cancel = %v", err)
	}
	waitPoolBalanced(t, db)
	if live := db.SpillStats().FilesLive(); live != 0 {
		t.Fatalf("%d spill files live after cancellation", live)
	}
}

// TestTopNFusesAndSkipsSpill: ORDER BY + LIMIT k plans a TopN node (visible
// in EXPLAIN), returns exactly the full sort's first k rows, and never
// touches the spill layer even when the input dwarfs WorkMem.
func TestTopNFusesAndSkipsSpill(t *testing.T) {
	const rows = 50_000
	db := mustOpen(t, Options{WorkMem: 64 << 10})
	defer db.Close()
	loadBig(t, db, rows)

	out, err := db.Explain("SELECT id, v FROM big ORDER BY v LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "TopN") {
		t.Fatalf("ORDER BY + LIMIT should plan a TopN node:\n%s", out)
	}
	if strings.Contains(out, "Sort") || strings.Contains(out, "Limit") {
		t.Fatalf("TopN should replace both Sort and Limit:\n%s", out)
	}

	before := db.SpillStats()
	res, err := db.ExecContext(t.Context(), "SELECT id, v FROM big ORDER BY v LIMIT 10 OFFSET 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("TopN returned %d rows, want 10", len(res.Rows))
	}
	// v = id % 97, so the smallest v values are 0 with ids ascending: the
	// full sort's rows 3..12 are ids 3*97..12*97 with v=0.
	for i, r := range res.Rows {
		wantID := int64((i + 3) * 97)
		if r[0].Int() != wantID || r[1].Int() != 0 {
			t.Fatalf("row %d = (%s, %s), want (%d, 0)", i, r[0], r[1], wantID)
		}
	}
	after := db.SpillStats()
	if after.TopN == before.TopN {
		t.Fatal("TopN execution should be counted in SpillStats")
	}
	if after.FilesCreated != before.FilesCreated || after.SortRuns != before.SortRuns {
		t.Fatalf("TopN must not spill: before %+v after %+v", before, after)
	}

	// A prepared ORDER BY + LIMIT keeps its TopN through the plan cache and
	// parameter substitution.
	stmt, err := db.Prepare(t.Context(), "SELECT id FROM big WHERE v >= ? ORDER BY id DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for i := 0; i < 3; i++ {
		res, err := stmt.ExecContext(t.Context(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 3 || res.Rows[0][0].Int() != rows-1 {
			t.Fatalf("prepared TopN rows: %v", res.Rows)
		}
	}
}

// TestStreamInsideTransaction: a Rows cursor opened inside an explicit
// transaction streams under the transaction's locks and leaves the
// transaction open on Close.
func TestStreamInsideTransaction(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	if err := db.ExecScript(t.Context(), "CREATE TABLE tx (id INT); INSERT INTO tx VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	c := db.Conn()
	if _, err := c.ExecContext(t.Context(), "BEGIN"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.QueryContext(context.Background(), "SELECT id FROM tx")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("rows = %d", n)
	}
	if !c.InTxn() {
		t.Fatal("closing a cursor must not close the explicit transaction")
	}
	if _, err := c.ExecContext(t.Context(), "COMMIT"); err != nil {
		t.Fatal(err)
	}
}
