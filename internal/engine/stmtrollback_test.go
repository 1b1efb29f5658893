package engine

import (
	"fmt"
	"strings"
	"testing"
)

// rowsOf renders the rows of q, a SELECT of table t, in id order.
func rowsOf(t *testing.T, s *Session, q string) string {
	t.Helper()
	return fmt.Sprint(mustExec(t, s, q+" ORDER BY id").Rows)
}

// TestStatementRollbackKeepsTransaction: a statement that fails inside an
// explicit transaction undoes exactly its own writes — a multi-row INSERT
// whose second row is a duplicate, an UPDATE that moves one key and then
// collides on the next — while the transaction stays open with its earlier
// writes, and a COMMIT keeps those and nothing of the failed statements.
// Primary-key probes agree with the scan, so the index entries were undone
// too.
func TestStatementRollbackKeepsTransaction(t *testing.T) {
	db := NewDB(Config{})
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 10)")

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t VALUES (2, 20)")
	if _, err := execSQL(t, s, "INSERT INTO t VALUES (5, 50), (1, 11)"); err == nil || !strings.Contains(err.Error(), dupKey) {
		t.Fatalf("INSERT of a taken key: err %v, want %q", err, dupKey)
	}
	if !s.InTxn() {
		t.Fatal("a failed statement ended the transaction")
	}
	if got := rowsOf(t, s, "SELECT id, v FROM t"); got != "[(1, 10) (2, 20)]" {
		t.Fatalf("inside the transaction after the failed INSERT: %s", got)
	}
	mustExec(t, s, "INSERT INTO t VALUES (12, 120)")
	// The targets are 1 then 2, in heap order: 1 moves to the free key 11,
	// then 2 collides with 12, and 1's move must be undone.
	if _, err := execSQL(t, s, "UPDATE t SET id = id + 10 WHERE id < 5"); err == nil || !strings.Contains(err.Error(), dupKey) {
		t.Fatalf("UPDATE moving 2 onto 12: err %v, want %q", err, dupKey)
	}
	if got := rowsOf(t, s, "SELECT id, v FROM t"); got != "[(1, 10) (2, 20) (12, 120)]" {
		t.Fatalf("inside the transaction after the failed UPDATE: %s", got)
	}
	mustExec(t, s, "UPDATE t SET v = v + 1 WHERE id = 2")
	mustExec(t, s, "COMMIT")

	other := db.NewSession()
	if got := rowsOf(t, other, "SELECT id, v FROM t"); got != "[(1, 10) (2, 21) (12, 120)]" {
		t.Fatalf("after COMMIT: %s", got)
	}
	for id, want := range map[int]string{1: "[(1, 10)]", 2: "[(2, 21)]", 5: "[]", 11: "[]", 12: "[(12, 120)]"} {
		if got := fmt.Sprint(mustExec(t, other, fmt.Sprintf("SELECT id, v FROM t WHERE id = %d", id)).Rows); got != want {
			t.Fatalf("probe of id %d: %s, want %s", id, got, want)
		}
	}
	if live, _, err := db.TableVersions("t"); err != nil || live != 3 {
		t.Fatalf("live versions %d (%v), want 3", live, err)
	}
}

// TestStatementRollbackOnlyWritesCommits: a transaction whose only writes
// were undone by a failed statement commits cleanly — stamped committed,
// not aborted — and leaves the table as it was; the undone key is free.
func TestStatementRollbackOnlyWritesCommits(t *testing.T) {
	db := NewDB(Config{})
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 10)")
	before := db.MVCCStats()
	mustExec(t, s, "BEGIN")
	if _, err := execSQL(t, s, "INSERT INTO t VALUES (5, 50), (1, 11)"); err == nil {
		t.Fatal("INSERT of a taken key succeeded")
	}
	mustExec(t, s, "COMMIT")
	if after := db.MVCCStats(); after.Commits != before.Commits+1 || after.Aborts != before.Aborts {
		t.Fatalf("commits %d -> %d, aborts %d -> %d: want one commit, no abort",
			before.Commits, after.Commits, before.Aborts, after.Aborts)
	}
	if got := rowsOf(t, s, "SELECT id, v FROM t"); got != "[(1, 10)]" {
		t.Fatalf("after COMMIT: %s", got)
	}
	mustExec(t, s, "INSERT INTO t VALUES (5, 55)")
	if got := rowsOf(t, s, "SELECT id, v FROM t"); got != "[(1, 10) (5, 55)]" {
		t.Fatalf("re-inserting the undone key: %s", got)
	}
}

// TestDurableStatementRollbackRecovery: on a durable database, a good
// INSERT, a failing statement and another good INSERT inside one
// transaction, then a crash. Without a COMMIT nothing of the transaction
// survives recovery; with one, exactly the two good rows do — with or
// without a checkpoint between the failed statement and the crash.
func TestDurableStatementRollbackRecovery(t *testing.T) {
	for _, c := range []struct {
		name       string
		commit     bool
		checkpoint bool
		want       string
	}{
		{"uncommitted", false, false, "[(1, 10)]"},
		{"committed", true, false, "[(1, 10) (2, 20) (3, 30)]"},
		{"uncommitted/checkpoint", false, true, "[(1, 10)]"},
		{"committed/checkpoint", true, true, "[(1, 10) (2, 20) (3, 30)]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			db := openDurable(t, dir)
			s := db.NewSession()
			mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
			mustExec(t, s, "INSERT INTO t VALUES (1, 10)")
			mustExec(t, s, "BEGIN")
			mustExec(t, s, "INSERT INTO t VALUES (2, 20)")
			if _, err := execSQL(t, s, "INSERT INTO t VALUES (5, 50), (1, 11)"); err == nil {
				t.Fatal("INSERT of a taken key succeeded")
			}
			if c.checkpoint {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			mustExec(t, s, "INSERT INTO t VALUES (3, 30)")
			if c.commit {
				mustExec(t, s, "COMMIT")
			}
			// Crash: abandon the database without Close.
			db2 := openDurable(t, dir)
			defer db2.Close()
			s2 := db2.NewSession()
			if got := rowsOf(t, s2, "SELECT id, v FROM t"); got != c.want {
				t.Fatalf("after recovery: %s, want %s", got, c.want)
			}
			if got := fmt.Sprint(mustExec(t, s2, "SELECT id FROM t WHERE id = 5").Rows); got != "[]" {
				t.Fatalf("probe of the undone key 5: %s", got)
			}
			if live, dead, err := db2.TableVersions("t"); err != nil || dead != 0 || fmt.Sprint(live) != fmt.Sprint(strings.Count(c.want, "(")) {
				t.Fatalf("versions after recovery: %d live, %d dead (%v)", live, dead, err)
			}
		})
	}
}
