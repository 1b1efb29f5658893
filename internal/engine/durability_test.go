package engine

import (
	"os"
	"path/filepath"
	"testing"

	"stagedb/internal/storage"
	"stagedb/internal/txn"
)

func openDurable(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := OpenDB(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("OpenDB(%s): %v", dir, err)
	}
	return db
}

func TestDurableCloseReopenPreservesData(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three')")
	mustExec(t, s, "UPDATE kv SET v = 'deux' WHERE id = 2")
	mustExec(t, s, "DELETE FROM kv WHERE id = 3")
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	db2 := openDurable(t, dir)
	defer db2.Close()
	s2 := db2.NewSession()
	res := mustExec(t, s2, "SELECT id, v FROM kv ORDER BY id")
	if len(res.Rows) != 2 {
		t.Fatalf("rows after reopen: %v", res.Rows)
	}
	if res.Rows[0][1].Text() != "one" || res.Rows[1][1].Text() != "deux" {
		t.Fatalf("values after reopen: %v", res.Rows)
	}
	// The primary-key index must be rebuilt and functional.
	res = mustExec(t, s2, "SELECT v FROM kv WHERE id = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "deux" {
		t.Fatalf("index lookup after reopen: %v", res.Rows)
	}
	if _, err := execSQL(t, s2, "INSERT INTO kv VALUES (1, 'dup')"); err == nil {
		t.Fatal("unique constraint must survive reopen")
	}
}

func TestDurableRecoveryRedoesWithoutClose(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 10), (2, 20)")
	mustExec(t, s, "UPDATE kv SET v = 21 WHERE id = 2")
	// Simulate a crash: abandon the DB without Close, so dirty pages never
	// reach the data file. The commits' WaitDurable put the log on disk, so
	// recovery must redo everything from it.
	db2 := openDurable(t, dir)
	defer db2.Close()
	s2 := db2.NewSession()
	res := mustExec(t, s2, "SELECT v FROM kv ORDER BY id")
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 10 || res.Rows[1][0].Int() != 21 {
		t.Fatalf("redo after crash: %v", res.Rows)
	}
	if db2.WALCounters()["recov_redo"] == 0 {
		t.Fatal("recovery should have redone page operations")
	}
}

func TestDurableUncommittedUndoneOnRecovery(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 10)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO kv VALUES (2, 20)")
	mustExec(t, s, "UPDATE kv SET v = 11 WHERE id = 1")
	// A fuzzy checkpoint flushes the uncommitted changes to the data file
	// and snapshots the open txn's undo chain; recovery must roll it back.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Crash without COMMIT.
	db2 := openDurable(t, dir)
	defer db2.Close()
	s2 := db2.NewSession()
	res := mustExec(t, s2, "SELECT id, v FROM kv ORDER BY id")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 || res.Rows[0][1].Int() != 10 {
		t.Fatalf("loser txn must be undone, got: %v", res.Rows)
	}
	if db2.WALCounters()["recov_losers"] == 0 {
		t.Fatal("recovery should have counted the loser txn")
	}
}

func TestDurableRollbackSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 10)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO kv VALUES (2, 20)")
	mustExec(t, s, "UPDATE kv SET v = 99 WHERE id = 1")
	mustExec(t, s, "ROLLBACK")
	// Crash without Close: the rollback's CLRs are in the log, so redo must
	// reapply both the changes and their compensation.
	db2 := openDurable(t, dir)
	defer db2.Close()
	s2 := db2.NewSession()
	res := mustExec(t, s2, "SELECT id, v FROM kv ORDER BY id")
	if len(res.Rows) != 1 || res.Rows[0][1].Int() != 10 {
		t.Fatalf("rolled-back txn leaked after reopen: %v", res.Rows)
	}
}

func TestDurableDropTableSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE a (id INT PRIMARY KEY)")
	mustExec(t, s, "CREATE TABLE b (id INT PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO a VALUES (1)")
	mustExec(t, s, "DROP TABLE a")
	db2 := openDurable(t, dir)
	defer db2.Close()
	s2 := db2.NewSession()
	if _, err := execSQL(t, s2, "SELECT * FROM a"); err == nil {
		t.Fatal("dropped table resurrected after reopen")
	}
	mustExec(t, s2, "INSERT INTO b VALUES (7)")
}

func TestDurableSweepsOrphanSpillFiles(t *testing.T) {
	dir := t.TempDir()
	spillDir := filepath.Join(dir, "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(spillDir, "stagedb-spill-123.run")
	if err := os.WriteFile(orphan, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(spillDir, "unrelated.txt")
	if err := os.WriteFile(keep, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := openDurable(t, dir)
	defer db.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan spill file not swept on open")
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatal("unrelated file must not be swept")
	}
	if db.WALCounters()["swept_spill"] != 1 {
		t.Fatalf("swept_spill counter: %v", db.WALCounters()["swept_spill"])
	}
}

func TestDurableWALStageSurfaced(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	defer db.Close()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INT PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO kv VALUES (1)")
	staged := NewStaged(db, StagedConfig{})
	defer staged.Close()
	found := false
	for _, st := range staged.Snapshot() {
		if st.Name == "wal" {
			found = true
			if st.Counters["commits"] == 0 || st.Counters["flushes"] == 0 {
				t.Fatalf("wal stage should report commits and flushes, got %v", st.Counters)
			}
		}
	}
	if !found {
		t.Fatal("wal pseudo-stage missing from staged snapshot")
	}
}

func TestDurableCheckpointRotatesLog(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, v TEXT)")
	for i := 0; i < 50; i++ {
		mustExec(t, s, "INSERT INTO kv VALUES ("+itoa(i)+", 'xxxxxxxxxxxxxxxx')")
	}
	before := walFileSize(t, dir)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if g := db.tm.Durable().Growth(); g != 0 {
		t.Fatalf("growth right after a checkpoint: %d", g)
	}
	after := walFileSize(t, dir)
	if after >= before {
		t.Fatalf("checkpoint should rotate to a smaller log: before=%d after=%d", before, after)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openDurable(t, dir)
	defer db2.Close()
	res := mustExec(t, db2.NewSession(), "SELECT COUNT(*) FROM kv")
	if res.Rows[0][0].Int() != 50 {
		t.Fatalf("rows after rotation+reopen: %v", res.Rows)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestDurablePageStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := storage.OpenFileStore(storage.OsFS{}, filepath.Join(dir, "data.stagedb"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	pool := storage.NewPool(fs, 4)
	pg, id, err := pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pg.Insert([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	pg.SetLSN(42)
	pool.Unpin(id, true)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// A second pool over the same store must read the page image back,
	// CRC-verified, from the file.
	pool2 := storage.NewPool(fs, 4)
	got, err := pool2.Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Unpin(id, false)
	if got.LSN() != 42 {
		t.Fatalf("LSN round trip: %d", got.LSN())
	}
	rec, err := got.Get(0)
	if err != nil || string(rec) != "hello" {
		t.Fatalf("record round trip: %q %v", rec, err)
	}
}

// TestRecoveryUndoSkipsDroppedTable: a loser inserts into x and drops it,
// which frees x's pages at once; a committed writer then reuses the freed
// page for y. Undoing the loser's insert after a crash must not touch the
// page, which now holds y's rows.
func TestRecoveryUndoSkipsDroppedTable(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	a := db.NewSession()
	mustExec(t, a, "CREATE TABLE x (id INT PRIMARY KEY)")
	mustExec(t, a, "CREATE TABLE y (id INT PRIMARY KEY)")
	loser := db.NewSession()
	mustExec(t, loser, "BEGIN")
	mustExec(t, loser, "INSERT INTO x VALUES (1)")
	mustExec(t, loser, "DROP TABLE x")
	for i := 1; i <= 5; i++ {
		mustExec(t, a, "INSERT INTO y VALUES ("+itoa(i)+")")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash: reopen without Close, the loser still open.
	db2 := openDurable(t, dir)
	defer db2.Close()
	res := mustExec(t, db2.NewSession(), "SELECT COUNT(*) FROM y")
	if n := res.Rows[0][0].Int(); n != 5 {
		t.Fatalf("y has %d rows after recovery, want 5", n)
	}
}

// vacuumFixture loads kv with ten rows and updates five of them, leaving
// five dead versions for a vacuum to remove.
func vacuumFixture(t *testing.T, db *DB) {
	t.Helper()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8), (9, 9), (10, 10)")
	mustExec(t, s, "UPDATE kv SET v = v + 100 WHERE id <= 5")
}

// vacuumUncommitted removes kv's dead versions inside a transaction it
// leaves open, returning the transaction and the versions removed.
func vacuumUncommitted(t *testing.T, db *DB) (txn.ID, int64) {
	t.Helper()
	tbl, err := db.cat.Get("kv")
	if err != nil {
		t.Fatal(err)
	}
	id := db.begin()
	n, err := db.vacuumTable(t.Context(), id, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("vacuum removed %d versions, want 5", n)
	}
	return id, n
}

// checkKV asserts kv's visible contents, through a scan and the index.
func checkKV(t *testing.T, db *DB) {
	t.Helper()
	s := db.NewSession()
	res := mustExec(t, s, "SELECT COUNT(*), SUM(v) FROM kv")
	if res.Rows[0][0].Int() != 10 || res.Rows[0][1].Int() != 555 {
		t.Fatalf("kv count, sum = %v, want 10, 555", res.Rows[0])
	}
	res = mustExec(t, s, "SELECT v FROM kv WHERE id = 3")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 103 {
		t.Fatalf("index lookup of id 3: %v", res.Rows)
	}
}

// TestVacuumRollbackRestoresVersions undoes a vacuum's removals live: every
// removed version comes back, and a later vacuum reclaims them again.
func TestVacuumRollbackRestoresVersions(t *testing.T) {
	db := NewDB(Config{})
	vacuumFixture(t, db)
	id, _ := vacuumUncommitted(t, db)
	if err := db.rollback(id); err != nil {
		t.Fatal(err)
	}
	if live, dead, err := db.TableVersions("kv"); err != nil || live != 10 || dead != 5 {
		t.Fatalf("after rollback: live %d dead %d err %v, want 10 and 5", live, dead, err)
	}
	checkKV(t, db)
	if n, err := db.Vacuum(t.Context()); err != nil || n != 5 {
		t.Fatalf("vacuum after rollback reclaimed %d (err %v), want 5", n, err)
	}
	checkKV(t, db)
}

// TestVacuumUndoneByRecovery crashes with a vacuum's removals logged but
// not committed: recovery undoes them, and the data reads as before.
func TestVacuumUndoneByRecovery(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	vacuumFixture(t, db)
	mustExec(t, db.NewSession(), "CREATE TABLE other (id INT PRIMARY KEY)")
	_, n := vacuumUncommitted(t, db)
	// A commit after the vacuum puts its records on stable storage.
	mustExec(t, db.NewSession(), "INSERT INTO other VALUES (1)")

	db2 := openDurable(t, dir)
	defer db2.Close()
	if undone := db2.WALCounters()["recov_undo"]; undone < n {
		t.Fatalf("recovery undid %d records, want at least the vacuum's %d", undone, n)
	}
	checkKV(t, db2)
	if live, dead, err := db2.TableVersions("kv"); err != nil || live != 10 || dead != 0 {
		t.Fatalf("after recovery: live %d dead %d err %v, want 10 and 0", live, dead, err)
	}
}
