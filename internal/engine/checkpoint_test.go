package engine

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func walFileSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, "wal.stagedb"))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// crashImage copies the data file and log of a running database into a
// fresh directory, as a crash would leave them: no Close, no final
// checkpoint. Holding ckptMu keeps a checkpoint and every mutation out of
// the copy.
func crashImage(t *testing.T, db *DB, dir string) string {
	t.Helper()
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	img := t.TempDir()
	for _, name := range []string{"data.stagedb", "wal.stagedb"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// TestDurableCheckpointBoundsLog commits ten checkpoint budgets of
// auto-commit INSERTs while a second session holds nothing, a reader, a
// small writer, or a writer whose own undo chain outgrows the budget. Every
// checkpoint rotates the log, so the log takes one checkpoint per budget of
// growth and its file stays within twice the budget plus the open writer's
// records. A crash image taken with the writer open must recover every
// commit and none of the writer's rows; one taken after the writer commits
// must hold them all, and one taken after it rolls back none — its CLRs then
// compensate records that live only in the checkpoint's undo chain.
func TestDurableCheckpointBoundsLog(t *testing.T) {
	const budget = 64 << 10
	pad := strings.Repeat("x", 4000)
	commits := 10 * budget / len(pad) // each commit logs more than its pad
	cases := []struct {
		name       string
		reader     bool
		writerRows int    // rows the open writer inserts into w
		end        string // how the writer ends
	}{
		{name: "idle"},
		{name: "reader", reader: true},
		{name: "writer-commit", writerRows: 3, end: "COMMIT"},
		{name: "writer-rollback", writerRows: 3, end: "ROLLBACK"},
		{name: "big-writer-commit", writerRows: 2 * budget / len(pad), end: "COMMIT"},
		{name: "big-writer-rollback", writerRows: 2 * budget / len(pad), end: "ROLLBACK"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := OpenDB(Config{DataDir: dir, CheckpointBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			s, other := db.NewSession(), db.NewSession()
			mustExec(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, v TEXT)")
			mustExec(t, s, "CREATE TABLE w (id INT PRIMARY KEY, v TEXT)")
			var writerBytes int64
			if tc.reader {
				mustExec(t, other, "BEGIN")
				mustExec(t, other, "SELECT COUNT(*) FROM kv")
			}
			if tc.writerRows > 0 {
				before := db.WALCounters()["end_lsn"]
				mustExec(t, other, "BEGIN")
				for i := 0; i < tc.writerRows; i++ {
					mustExec(t, other, "INSERT INTO w VALUES ("+itoa(i)+", '"+pad+"')")
				}
				writerBytes = db.WALCounters()["end_lsn"] - before
			}

			ckpts := db.WALCounters()["checkpoints"]
			var maxWAL int64
			for i := 0; i < commits; i++ {
				mustExec(t, s, "INSERT INTO kv VALUES ("+itoa(i)+", '"+pad+"')")
				maxWAL = max(maxWAL, walFileSize(t, dir))
			}
			n := db.WALCounters()["checkpoints"] - ckpts
			if n < 1 || n > 11 {
				t.Errorf("%d checkpoints over 10 budgets of commits, want 1..11", n)
			}
			if bound := 2*budget + writerBytes; maxWAL > bound {
				t.Errorf("WAL file reached %d bytes, want <= %d (2 budgets + %d of open writer)", maxWAL, bound, writerBytes)
			}
			t.Logf("%d commits: %d checkpoints, WAL file at most %d bytes, open writer logged %d", commits, n, maxWAL, writerBytes)

			recovered := func(img string, wantW int) {
				t.Helper()
				db2 := openDurable(t, img)
				defer db2.Close()
				s2 := db2.NewSession()
				if got := mustExec(t, s2, "SELECT COUNT(*) FROM kv").Rows[0][0].Int(); got != int64(commits) {
					t.Errorf("recovered %d of %d committed rows", got, commits)
				}
				if got := mustExec(t, s2, "SELECT COUNT(*) FROM w").Rows[0][0].Int(); got != int64(wantW) {
					t.Errorf("recovered %d writer rows, want %d", got, wantW)
				}
			}
			recovered(crashImage(t, db, dir), 0)
			if tc.end == "" {
				return
			}
			mustExec(t, other, tc.end)
			want := 0
			if tc.end == "COMMIT" {
				want = tc.writerRows
			}
			recovered(crashImage(t, db, dir), want)
		})
	}
}

// TestDurableCheckpointConcurrentCommits has several sessions commit at
// once into tables of their own past a small budget, so the commit that
// crosses it runs the checkpoint while the others are mid-statement or
// parked on a group flush. Every commit must survive a crash image.
func TestDurableCheckpointConcurrentCommits(t *testing.T) {
	const writers, rows = 4, 60
	dir := t.TempDir()
	db, err := OpenDB(Config{DataDir: dir, CheckpointBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pad := strings.Repeat("y", 1000)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		table := "c" + itoa(w)
		mustExec(t, db.NewSession(), "CREATE TABLE "+table+" (id INT PRIMARY KEY, v TEXT)")
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < rows; i++ {
				if _, err := execSQL(t, s, "INSERT INTO "+table+" VALUES ("+itoa(i)+", '"+pad+"')"); err != nil {
					t.Errorf("%s row %d: %v", table, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := db.WALCounters()["checkpoints"]; n < 2 {
		t.Fatalf("%d checkpoints: the budget never triggered one", n)
	}
	db2 := openDurable(t, crashImage(t, db, dir))
	defer db2.Close()
	for w := 0; w < writers; w++ {
		if got := mustExec(t, db2.NewSession(), "SELECT COUNT(*) FROM c"+itoa(w)).Rows[0][0].Int(); got != rows {
			t.Errorf("c%d: recovered %d of %d rows", w, got, rows)
		}
	}
}
