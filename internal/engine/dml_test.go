package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"stagedb/internal/catalog"
	"stagedb/internal/mvcc"
	"stagedb/internal/sql"
	"stagedb/internal/storage"
	"stagedb/internal/storage/faultfs"
	"stagedb/internal/value"
)

// loadRows fills table t (id INT PRIMARY KEY, v INT, name TEXT) with ids
// 0..n-1, v = id % 100 and name = "n<id>", in multi-row INSERTs.
func loadRows(t *testing.T, s *Session, n int) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT, name TEXT)")
	var b strings.Builder
	for lo := 0; lo < n; lo += 500 {
		b.Reset()
		b.WriteString("INSERT INTO t VALUES ")
		for id := lo; id < lo+500 && id < n; id++ {
			if id > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, 'n%d')", id, id%100, id)
		}
		mustExec(t, s, b.String())
	}
}

// TestUpdateLocatesTargetsPerMatch: locating an UPDATE's targets decodes
// only the WHERE clause's columns of each heap record into one reused row,
// and pays visibility, full decode and the record copy per match. A
// one-row UPDATE on a 20k-row table therefore allocates a bounded amount,
// where decoding every version costs several allocations per heap row.
func TestUpdateLocatesTargetsPerMatch(t *testing.T) {
	const rows = 20000
	db := NewDB(Config{})
	s := db.NewSession()
	loadRows(t, s, rows)
	stmt, err := sql.Parse("UPDATE t SET v = v + 1 WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	next := int64(0)
	update := func() {
		bound, err := sql.BindParams(stmt, []value.Value{value.NewInt(next * 7919 % rows)})
		if err != nil {
			t.Fatal(err)
		}
		next++
		res, err := s.ExecStmt(bound)
		if err != nil || res.Affected != 1 {
			t.Fatalf("update: affected %v, err %v", res, err)
		}
	}
	update()
	// A full decode of every visible version costs at least two allocations
	// a row (the row, the name string): 40k here. What is left is the
	// statement's own work — parse, bind, one new version, its index entry.
	if allocs := testing.AllocsPerRun(5, update); allocs > rows/20 {
		t.Fatalf("a one-row UPDATE over %d rows made %.0f allocations, want <= %d: the target walk is paying per heap row", rows, allocs, rows/20)
	}
}

// TestUpdatePredicateErrorOnlyOnVisibleRows: a WHERE clause that fails to
// evaluate on a version the statement's snapshot cannot see does not fail
// the statement; the same clause failing on a visible row does.
func TestUpdatePredicateErrorOnlyOnVisibleRows(t *testing.T) {
	db := NewDB(Config{})
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 10), (2, 5)")
	mustExec(t, s, "UPDATE t SET v = 0 WHERE id = 2") // dead version v=5, live v=0

	mustExec(t, s, "DELETE FROM t WHERE id = 2") // every v=0 version now invisible
	mustExec(t, s, "BEGIN")
	other := db.NewSession()
	mustExec(t, other, "INSERT INTO t VALUES (3, 0)") // committed after our snapshot
	res := mustExec(t, s, "UPDATE t SET v = v + 1 WHERE 10 / v = 1")
	if res.Affected != 1 {
		t.Fatalf("affected %d, want 1 (id 1)", res.Affected)
	}
	res = mustExec(t, s, "DELETE FROM t WHERE 10 / v = 2")
	if res.Affected != 0 {
		t.Fatalf("delete affected %d, want 0", res.Affected)
	}
	mustExec(t, s, "COMMIT")

	// id 3 (v = 0) is visible to a fresh snapshot: the division fails.
	for _, q := range []string{"UPDATE t SET v = 1 WHERE 10 / v = 1", "DELETE FROM t WHERE 10 / v = 1"} {
		if _, err := s.Exec(q); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("%s: want a division-by-zero error, got %v", q, err)
		}
	}
}

// TestUpdateDeleteMatchSelectUnderSnapshot is a differential check of the
// target walk: with dead versions, versions committed after the snapshot
// and the transaction's own uncommitted versions in the heap, UPDATE and
// DELETE affect exactly the rows SELECT ... WHERE p returns under the same
// snapshot — or fail with a serialization failure exactly when one of those
// rows was superseded after the snapshot began.
func TestUpdateDeleteMatchSelectUnderSnapshot(t *testing.T) {
	db := NewDB(Config{})
	s := db.NewSession()
	other := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT, name TEXT, note TEXT, hits INT)")
	var b strings.Builder
	b.WriteString("INSERT INTO t VALUES ")
	for id := 0; id < 200; id++ {
		if id > 0 {
			b.WriteString(", ")
		}
		note := "NULL"
		if id%3 != 0 {
			note = fmt.Sprintf("'x%d'", id%5)
		}
		fmt.Fprintf(&b, "(%d, %d, 'n%d', %s, 0)", id, id%100, id, note)
	}
	mustExec(t, s, b.String())
	// Dead versions older than every snapshot below.
	mustExec(t, s, "UPDATE t SET v = v + 50 WHERE id >= 100 AND id < 130")
	mustExec(t, s, "DELETE FROM t WHERE id >= 190")

	preds := []string{
		"",
		"v > 50",
		"v > 20 AND name LIKE 'n1%'",
		"note IS NULL",
		"id IN (3, 5, 7, 25, 40, 121, 150, 5001)",
		"name LIKE '%7'",
	}
	nextID := 5000
	for i, p := range preds {
		where := ""
		if p != "" {
			where = " WHERE " + p
		}
		for _, del := range []bool{false, true} {
			// Rows another transaction changes after our snapshot: ids 150+i
			// and 160+i are superseded, new ids appear.
			touched := map[int64]bool{int64(150 + i): true, int64(160 + i): true}
			mustExec(t, s, "BEGIN")
			mustExec(t, other, fmt.Sprintf("UPDATE t SET v = 77, note = NULL WHERE id = %d", 150+i))
			mustExec(t, other, fmt.Sprintf("DELETE FROM t WHERE id = %d", 160+i))
			mustExec(t, other, fmt.Sprintf("INSERT INTO t VALUES (%d, 99, 'n1%d7', NULL, 0), (%d, 3, 'n%d', 'x', 0)",
				nextID, nextID, nextID+1, nextID+1))
			nextID += 2
			// The transaction's own in-flight versions.
			mustExec(t, s, "UPDATE t SET v = v + 3, hits = hits + 10 WHERE id < 20")

			want := idsOf(t, mustExec(t, s, "SELECT id FROM t"+where))
			before := hitsByID(t, mustExec(t, s, "SELECT id, hits FROM t"))
			conflict := false
			for _, id := range want {
				conflict = conflict || touched[id]
			}
			q := "UPDATE t SET hits = hits + 1" + where
			if del {
				q = "DELETE FROM t" + where
			}
			res, err := s.Exec(q)
			if conflict {
				if !errors.Is(err, mvcc.ErrSerializationFailure) {
					t.Fatalf("%s: a target was superseded after the snapshot, want a serialization failure, got %v", q, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if res.Affected != int64(len(want)) {
				t.Fatalf("%s: affected %d, SELECT under the same snapshot returns %d", q, res.Affected, len(want))
			}
			after := hitsByID(t, mustExec(t, s, "SELECT id, hits FROM t"))
			matched := make(map[int64]bool, len(want))
			for _, id := range want {
				matched[id] = true
			}
			for id, h := range before {
				got, ok := after[id]
				switch {
				case del && matched[id]:
					if ok {
						t.Fatalf("%s: row %d still visible", q, id)
					}
				case !ok:
					t.Fatalf("%s: row %d vanished", q, id)
				case !del && matched[id] && got != h+1:
					t.Fatalf("%s: row %d hits %d -> %d, want +1", q, id, h, got)
				case !matched[id] && got != h:
					t.Fatalf("%s: unmatched row %d changed (hits %d -> %d)", q, id, h, got)
				}
			}
			left := len(before)
			if del {
				left -= len(want)
			}
			if len(after) != left {
				t.Fatalf("%s: %d rows before, %d after, want %d", q, len(before), len(after), left)
			}
			mustExec(t, s, "ROLLBACK")
		}
	}
}

func idsOf(t *testing.T, res *Result) []int64 {
	t.Helper()
	ids := make([]int64, len(res.Rows))
	for i, r := range res.Rows {
		ids[i] = r[0].Int()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func hitsByID(t *testing.T, res *Result) map[int64]int64 {
	t.Helper()
	m := make(map[int64]int64, len(res.Rows))
	for _, r := range res.Rows {
		if _, dup := m[r[0].Int()]; dup {
			t.Fatalf("id %d visible twice", r[0].Int())
		}
		m[r[0].Int()] = r[1].Int()
	}
	return m
}

// TestHeapScanErrorFailsUpdate: when pinning a page fails mid-walk — here
// evicting a dirty frame to a data file that refuses writes — a full-table
// UPDATE and a CREATE INDEX return the error instead of succeeding over the
// part of the heap they reached.
func TestHeapScanErrorFailsUpdate(t *testing.T) {
	ffs := faultfs.New(storage.OsFS{})
	db, err := OpenDB(Config{DataDir: t.TempDir(), PoolFrames: 4, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	loadRows(t, s, 2000)
	if h, _ := db.HeapOf(mustTable(t, db, "t")); h.Pages() < 8 {
		t.Fatalf("table spans %d pages, want more than the pool's 4 frames", h.Pages())
	}
	ffs.FailWritesFrom(1, "data.stagedb", nil)
	for _, q := range []string{"UPDATE t SET v = v + 1 WHERE v >= 0", "CREATE INDEX t_v ON t (v)"} {
		res, err := s.Exec(q)
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("%s with a failing page write-back: result %+v, err %v; want the injected error", q, res, err)
		}
	}
	ffs.Disarm()
	res := mustExec(t, s, "SELECT COUNT(*) FROM t WHERE v = 0")
	if n := res.Rows[0][0].Int(); n != 20 {
		t.Fatalf("failed UPDATE left %d rows with v = 0, want the original 20", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustTable(t *testing.T, db *DB, name string) *catalog.Table {
	t.Helper()
	tbl, err := db.Catalog().Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// walCounts returns the log's commit-record and fsync counts.
func walCounts(db *DB) (commits, syncs int64) {
	c := db.WALCounters()
	return c["commits"], c["syncs"]
}

// TestReadOnlyCommitSkipsLog: a transaction that logged nothing — an
// auto-commit SELECT, an explicit read-only transaction — neither appends a
// commit record nor waits for a flush.
func TestReadOnlyCommitSkipsLog(t *testing.T) {
	db := openDurable(t, t.TempDir())
	defer db.Close()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 10), (2, 20)")
	commits, syncs := walCounts(db)
	for i := 0; i < 20; i++ {
		mustExec(t, s, "SELECT v FROM kv WHERE id = 1")
		mustExec(t, s, "SELECT COUNT(*) FROM kv")
	}
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "SELECT v FROM kv")
	mustExec(t, s, "COMMIT")
	if c, y := walCounts(db); c != commits || y != syncs {
		t.Fatalf("read-only transactions moved the log: commits %d -> %d, syncs %d -> %d", commits, c, syncs, y)
	}
	// A writer still commits through the log.
	mustExec(t, s, "UPDATE kv SET v = 11 WHERE id = 1")
	if c, y := walCounts(db); c != commits+1 || y <= syncs {
		t.Fatalf("a writing commit must append and flush: commits %d -> %d, syncs %d -> %d", commits, c, syncs, y)
	}
}

// TestReadOnlyCommitRacesGroupFlush: readers commit without the log while
// writers park on group flushes. Every writer still gets exactly one commit
// record, and a reader never sees a row count go backwards — nothing it saw
// was a commit the log could still lose.
func TestReadOnlyCommitRacesGroupFlush(t *testing.T) {
	db := openDurable(t, t.TempDir())
	defer db.Close()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, v INT)")
	commits, _ := walCounts(db)
	const writers, readers, perWriter = 2, 2, 40
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		ws := db.NewSession()
		go func(w int) {
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i
				if _, err := ws.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, 0)", id)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for r := 0; r < readers; r++ {
		rs := db.NewSession()
		go func() {
			last := int64(0)
			for last < writers*perWriter {
				res, err := rs.Exec("SELECT COUNT(*) FROM kv")
				if err != nil {
					errs <- err
					return
				}
				n := res.Rows[0][0].Int()
				if n < last {
					errs <- fmt.Errorf("row count went from %d back to %d", last, n)
					return
				}
				last = n
			}
			errs <- nil
		}()
	}
	for i := 0; i < writers+readers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if c, _ := walCounts(db); c != commits+writers*perWriter {
		t.Fatalf("%d commit records for %d writing statements", c-commits, writers*perWriter)
	}
}

// TestReadOnlyCommitEmptyUpdate: a transaction whose UPDATE matched no row
// logged nothing, so it commits without a flush.
func TestReadOnlyCommitEmptyUpdate(t *testing.T) {
	db := openDurable(t, t.TempDir())
	defer db.Close()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 10)")
	commits, syncs := walCounts(db)
	mustExec(t, s, "BEGIN")
	if res := mustExec(t, s, "UPDATE kv SET v = 0 WHERE id = 99"); res.Affected != 0 {
		t.Fatalf("affected %d, want 0", res.Affected)
	}
	mustExec(t, s, "COMMIT")
	if res := mustExec(t, s, "DELETE FROM kv WHERE v > 100"); res.Affected != 0 {
		t.Fatalf("affected %d, want 0", res.Affected)
	}
	if c, y := walCounts(db); c != commits || y != syncs {
		t.Fatalf("empty DML commits moved the log: commits %d -> %d, syncs %d -> %d", commits, c, syncs, y)
	}
}

// TestDurableDDLSurvivesCrashInExplicitTxn: DDL records carry no
// transaction id, yet a transaction that logged one must still flush at
// commit. Each DDL statement runs alone in an explicit transaction; the
// log and data file are then copied with the database still open (a crash)
// and the copy must recover every one of them.
func TestDurableDDLSurvivesCrashInExplicitTxn(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	defer db.Close()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE gone (id INT PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO gone VALUES (1)")
	for _, q := range []string{
		"CREATE TABLE kept (id INT PRIMARY KEY, v INT)",
		"CREATE INDEX kept_v ON kept (v)",
		"DROP TABLE gone",
	} {
		mustExec(t, s, "BEGIN")
		mustExec(t, s, q)
		mustExec(t, s, "COMMIT")
	}

	crash := t.TempDir()
	for _, name := range []string{"data.stagedb", "wal.stagedb"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db2 := openDurable(t, crash)
	defer db2.Close()
	s2 := db2.NewSession()
	mustExec(t, s2, "INSERT INTO kept VALUES (1, 5)")
	tbl := mustTable(t, db2, "kept")
	if len(tbl.Indexes) != 2 {
		t.Fatalf("kept has indexes %v after recovery, want its primary key and kept_v", tbl.Indexes)
	}
	if _, err := s2.Exec("SELECT * FROM gone"); err == nil {
		t.Fatal("dropped table resurrected by recovery")
	}
}
