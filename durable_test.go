package stagedb

import (
	"os"
	"path/filepath"
	"testing"
)

func TestDurableOptionsValidation(t *testing.T) {
	// Durable modes without a directory must fail with a clear error.
	for _, d := range []Durability{DurabilityGroup, DurabilitySync} {
		if _, err := Open(Options{Durability: d}); err == nil {
			t.Fatalf("Durability %d without DataDir must fail Open", d)
		}
	}
	// An unknown policy is rejected.
	if _, err := Open(Options{Durability: Durability(99)}); err == nil {
		t.Fatal("unknown Durability must fail Open")
	}
	// A data dir that cannot be created is rejected up front.
	blocked := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{DataDir: filepath.Join(blocked, "sub")}); err == nil {
		t.Fatal("data dir under a regular file must fail Open")
	}
	// DurabilityOff ignores the directory: volatile database, no files.
	dir := t.TempDir()
	db, err := Open(Options{DataDir: dir, Durability: DurabilityOff})
	if err != nil {
		t.Fatal(err)
	}
	if db.Durable() {
		t.Fatal("DurabilityOff must stay in-memory")
	}
	if db.WALStats() != nil {
		t.Fatal("volatile database must not report WAL stats")
	}
	db.Close()
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("DurabilityOff created files: %v", entries)
	}
}

func TestDurableEnvFallback(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("STAGEDB_DATADIR", dir)
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !db.Durable() {
		t.Fatal("STAGEDB_DATADIR must make the database durable")
	}
	if _, err := db.ExecContext(t.Context(), "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.stagedb")); err != nil {
		t.Fatalf("wal file missing under env data dir: %v", err)
	}
}

func TestDurableReopenThroughRootAPI(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(t.Context(), "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(t.Context(), "INSERT INTO t VALUES (1, 'a'), (2, 'b')"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.ExecContext(t.Context(), "SELECT v FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Text() != "a" {
		t.Fatalf("rows after reopen: %v", res.Rows)
	}
	// The wal pseudo-stage is part of the monitoring surface.
	found := false
	for _, st := range db2.Stages() {
		if st.Name == "wal" {
			found = true
		}
	}
	if !found {
		t.Fatal("wal pseudo-stage missing from Stages()")
	}
	if db2.WALStats() == nil {
		t.Fatal("durable database must report WAL stats")
	}
}

func TestDurableSyncModeCommits(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{DataDir: dir, Durability: DurabilitySync})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.ExecContext(t.Context(), "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.ExecContext(t.Context(), "INSERT INTO t VALUES (?)", i); err != nil {
			t.Fatal(err)
		}
	}
	st := db.WALStats()
	if st["syncs"] < 3 {
		t.Fatalf("sync mode must fsync per commit: %v", st)
	}
}

// TestReadOnlyCommitThroughRootAPI: on a durable database, queries and a
// read-only explicit transaction leave the log's commit and fsync counts
// where they were.
func TestReadOnlyCommitThroughRootAPI(t *testing.T) {
	db, err := Open(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.ExecContext(t.Context(), "CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(t.Context(), "INSERT INTO t VALUES (1, 10), (2, 20)"); err != nil {
		t.Fatal(err)
	}
	before := db.WALStats()
	for i := 0; i < 10; i++ {
		if _, err := db.ExecContext(t.Context(), "SELECT v FROM t WHERE id = ?", 1); err != nil {
			t.Fatal(err)
		}
	}
	conn := db.Conn()
	for _, q := range []string{"BEGIN", "SELECT COUNT(*) FROM t", "COMMIT"} {
		if _, err := conn.ExecContext(t.Context(), q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	after := db.WALStats()
	if after["commits"] != before["commits"] || after["syncs"] != before["syncs"] {
		t.Fatalf("read-only work moved the log: commits %d -> %d, syncs %d -> %d",
			before["commits"], after["commits"], before["syncs"], after["syncs"])
	}
}
