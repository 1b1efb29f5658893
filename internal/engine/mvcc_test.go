package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"stagedb/internal/mvcc"
	"stagedb/internal/sql"
	"stagedb/internal/storage"
)

// mvccSeeds returns the seed list a randomized test runs with: the fixed
// defaults, or the single value of STAGEDB_SEED when it is set, so a failure
// seen anywhere reproduces exactly with
//
//	STAGEDB_SEED=<seed> go test ./internal/engine -run <Test>
func mvccSeeds(t *testing.T, defaults ...int64) []int64 {
	t.Helper()
	s := os.Getenv("STAGEDB_SEED")
	if s == "" {
		return defaults
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad STAGEDB_SEED %q: %v", s, err)
	}
	return []int64{v}
}

func TestSnapshotOwnWritesVisibleOthersInvisible(t *testing.T) {
	db, writer := seed(t)
	mustExec(t, writer, "BEGIN")
	mustExec(t, writer, "UPDATE accounts SET balance = 1000 WHERE id = 1")
	mustExec(t, writer, "INSERT INTO accounts VALUES (4, 'dan', 5)")

	// The writer sees its own uncommitted changes.
	res := mustExec(t, writer, "SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Float() != 1000 {
		t.Fatalf("own update invisible to writer: %v", res.Rows)
	}
	res = mustExec(t, writer, "SELECT COUNT(*) FROM accounts")
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("own insert invisible to writer: %v", res.Rows)
	}

	// A concurrent snapshot sees neither — and does not block to find out.
	reader := db.NewSession()
	res = mustExec(t, reader, "SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Float() != 100 {
		t.Fatalf("uncommitted update leaked to reader: %v", res.Rows)
	}
	res = mustExec(t, reader, "SELECT COUNT(*) FROM accounts")
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("uncommitted insert leaked to reader: %v", res.Rows)
	}
	mustExec(t, writer, "COMMIT")
	res = mustExec(t, reader, "SELECT COUNT(*) FROM accounts")
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("committed insert invisible to fresh snapshot: %v", res.Rows)
	}
}

func TestSnapshotStableAcrossConcurrentCommit(t *testing.T) {
	db, writer := seed(t)
	reader := db.NewSession()
	mustExec(t, reader, "BEGIN")
	// First read pins nothing extra — the snapshot was taken at BEGIN.
	res := mustExec(t, reader, "SELECT balance FROM accounts WHERE id = 2")
	if res.Rows[0][0].Float() != 50 {
		t.Fatalf("baseline read: %v", res.Rows)
	}
	// A concurrent transaction commits mid-snapshot.
	mustExec(t, writer, "UPDATE accounts SET balance = 9999 WHERE id = 2")
	// The open snapshot must not see it; a fresh one must.
	res = mustExec(t, reader, "SELECT balance FROM accounts WHERE id = 2")
	if res.Rows[0][0].Float() != 50 {
		t.Fatalf("snapshot saw a concurrent commit: %v", res.Rows)
	}
	mustExec(t, reader, "COMMIT")
	res = mustExec(t, reader, "SELECT balance FROM accounts WHERE id = 2")
	if res.Rows[0][0].Float() != 9999 {
		t.Fatalf("new snapshot missed the commit: %v", res.Rows)
	}
}

func TestWriteWriteConflictFirstCommitterWins(t *testing.T) {
	db, s1 := seed(t)
	s2 := db.NewSession()
	mustExec(t, s1, "BEGIN")
	mustExec(t, s2, "BEGIN")
	mustExec(t, s1, "UPDATE accounts SET balance = 1 WHERE id = 1")

	// s2 queues behind s1's table lock; once s1 commits, s2's snapshot is
	// stale for the row s1 rewrote: first committer wins.
	errCh := make(chan error, 1)
	go func() {
		_, err := execSQL(t, s2, "UPDATE accounts SET balance = 2 WHERE id = 1")
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	mustExec(t, s1, "COMMIT")
	err := <-errCh
	if !errors.Is(err, mvcc.ErrSerializationFailure) {
		t.Fatalf("want ErrSerializationFailure, got %v", err)
	}
	// The loser was rolled back whole; its session is out of the transaction
	// and a retry against a fresh snapshot succeeds.
	if s2.InTxn() {
		t.Fatal("serialization loser should have been rolled back out of its txn")
	}
	mustExec(t, s2, "UPDATE accounts SET balance = 2 WHERE id = 1")
	res := mustExec(t, db.NewSession(), "SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Float() != 2 {
		t.Fatalf("retried update lost: %v", res.Rows)
	}
	st := db.MVCCStats()
	if st.Conflicts == 0 {
		t.Fatal("conflict counter not bumped")
	}
}

func TestConcurrentInsertSamePKSerializationFailure(t *testing.T) {
	db, s1 := seed(t)
	s2 := db.NewSession()
	mustExec(t, s1, "BEGIN")
	mustExec(t, s2, "BEGIN")
	mustExec(t, s1, "INSERT INTO accounts VALUES (10, 'x', 0)")
	errCh := make(chan error, 1)
	go func() {
		_, err := execSQL(t, s2, "INSERT INTO accounts VALUES (10, 'y', 0)")
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	mustExec(t, s1, "COMMIT")
	if err := <-errCh; !errors.Is(err, mvcc.ErrSerializationFailure) {
		t.Fatalf("want ErrSerializationFailure on racing PK insert, got %v", err)
	}
	res := mustExec(t, db.NewSession(), "SELECT owner FROM accounts WHERE id = 10")
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "x" {
		t.Fatalf("first committer's row should stand: %v", res.Rows)
	}
}

// loadWide populates table `big` with n (id, v) rows, v = 0.
func loadWide(t *testing.T, s *Session, n int) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE big (id INT PRIMARY KEY, v INT)")
	const batch = 500
	for start := 0; start < n; start += batch {
		var b strings.Builder
		b.WriteString("INSERT INTO big VALUES ")
		for i := start; i < start+batch && i < n; i++ {
			if i > start {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, 0)", i)
		}
		mustExec(t, s, b.String())
	}
}

// TestMixedWorkloadScanNeverBlocksWriters is the headline MVCC property: an
// analytic scan pinned mid-flight over a 100k-row table, while concurrent
// single-row updates commit without waiting for it, and the scan still
// returns the exact snapshot it began with.
func TestMixedWorkloadScanNeverBlocksWriters(t *testing.T) {
	const tableRows = 100_000
	const writers = 8
	db := NewDB(Config{})
	s := db.NewSession()
	loadWide(t, s, tableRows)

	sel := sql.MustParse("SELECT id, v FROM big").(*sql.Select)
	cur, err := db.NewSession().StreamStmt(context.Background(), sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pull one page and stop: the scan is pinned mid-flight, its snapshot
	// (and, under 2PL-for-writers, any lock a reader might wrongly take)
	// held open.
	pg, err := cur.NextPage()
	if err != nil || pg == nil {
		t.Fatalf("first page: %v", err)
	}
	seen := pg.Len()
	for i := 0; i < pg.Len(); i++ {
		if pg.Row(i)[1].Int() != 0 {
			t.Fatalf("pre-update row already modified: %v", pg.Row(i))
		}
	}
	pg.Release()

	// Writers must commit while the scan is open. If snapshot readers held
	// table locks, every one of these would block until cur.Close below —
	// which only runs after they finish: a deadlock the timeout turns into a
	// clean failure.
	writersDone := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			sess := db.NewSession()
			_, err := execSQL(t, sess, fmt.Sprintf("UPDATE big SET v = 1 WHERE id = %d", w))
			writersDone <- err
		}(w)
	}
	for w := 0; w < writers; w++ {
		select {
		case err := <-writersDone:
			if err != nil {
				t.Fatalf("writer: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("update blocked behind an open analytic scan: snapshot readers must not block writers")
		}
	}

	// Drain the rest of the scan: a consistent snapshot means every row
	// still reads v = 0, including the eight rows just updated.
	for {
		pg, err := cur.NextPage()
		if err != nil {
			t.Fatal(err)
		}
		if pg == nil {
			break
		}
		for i := 0; i < pg.Len(); i++ {
			if pg.Row(i)[1].Int() != 0 {
				t.Fatalf("scan leaked a mid-flight commit: row %v", pg.Row(i))
			}
		}
		seen += pg.Len()
		pg.Release()
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if seen != tableRows {
		t.Fatalf("scan returned %d rows, want %d", seen, tableRows)
	}
	// A fresh snapshot sees all eight updates.
	res := mustExec(t, s, "SELECT COUNT(*) FROM big WHERE v = 1")
	if res.Rows[0][0].Int() != writers {
		t.Fatalf("committed updates: %v", res.Rows)
	}
}

func TestVacuumReclaimsDeadVersions(t *testing.T) {
	db, s := seed(t)
	// Build version chains: each update supersedes the prior version.
	for i := 0; i < 5; i++ {
		mustExec(t, s, "UPDATE accounts SET balance = balance + 1 WHERE id = 1")
	}
	mustExec(t, s, "DELETE FROM accounts WHERE id = 2")

	tbl, err := db.Catalog().Get("accounts")
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.HeapOf(tbl)
	if err != nil {
		t.Fatal(err)
	}
	countRecs := func() int {
		n := 0
		if err := h.Scan(func(_ storage.RID, _ []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := countRecs()
	if before <= 2 {
		t.Fatalf("expected dead versions in the heap, found %d records", before)
	}

	pruned, err := db.Vacuum(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pruned == 0 {
		t.Fatal("vacuum reclaimed nothing")
	}
	after := countRecs()
	if after != 2 { // rows 1 and 3 live; row 2 deleted, all dead versions gone
		t.Fatalf("heap has %d records after vacuum, want 2", after)
	}
	// Logical contents unchanged.
	res := mustExec(t, s, "SELECT id, balance FROM accounts ORDER BY id")
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 1 || res.Rows[0][1].Float() != 105 {
		t.Fatalf("vacuum changed visible data: %v", res.Rows)
	}
	if st := db.MVCCStats(); st.VersionsPruned != int64(pruned) {
		t.Fatalf("VersionsPruned=%d, want %d", st.VersionsPruned, pruned)
	}
}

func TestVacuumRespectsOpenSnapshot(t *testing.T) {
	db, s := seed(t)
	reader := db.NewSession()
	mustExec(t, reader, "BEGIN")
	res := mustExec(t, reader, "SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Float() != 100 {
		t.Fatalf("baseline: %v", res.Rows)
	}
	// Supersede the row the open snapshot still needs.
	mustExec(t, s, "UPDATE accounts SET balance = 200 WHERE id = 1")
	if _, err := db.Vacuum(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The old version must have survived vacuum for the pinned snapshot.
	res = mustExec(t, reader, "SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Float() != 100 {
		t.Fatalf("vacuum reclaimed a version an open snapshot needed: %v", res.Rows)
	}
	mustExec(t, reader, "COMMIT")
	// Horizon advanced: now the dead version goes.
	pruned, err := db.Vacuum(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pruned == 0 {
		t.Fatal("vacuum should reclaim once the snapshot closed")
	}
}

func TestVersionChainTraversalAfterCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)")
	// Chain of superseded versions for id=1, a delete for id=3.
	mustExec(t, s, "UPDATE kv SET v = 11 WHERE id = 1")
	mustExec(t, s, "UPDATE kv SET v = 12 WHERE id = 1")
	mustExec(t, s, "DELETE FROM kv WHERE id = 3")
	// An uncommitted transaction lost in the crash: its version must not
	// survive recovery.
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE kv SET v = 999 WHERE id = 2")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash without COMMIT and without Close.
	db2 := openDurable(t, dir)
	defer db2.Close()
	s2 := db2.NewSession()
	res := mustExec(t, s2, "SELECT id, v FROM kv ORDER BY id")
	if len(res.Rows) != 2 {
		t.Fatalf("rows after recovery: %v", res.Rows)
	}
	if res.Rows[0][1].Int() != 12 || res.Rows[1][1].Int() != 20 {
		t.Fatalf("visible versions after recovery: %v", res.Rows)
	}
	// The version chain (dead intermediates) was swept during index rebuild:
	// point lookups must land on the live version only.
	res = mustExec(t, s2, "SELECT v FROM kv WHERE id = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 12 {
		t.Fatalf("index traversal after recovery: %v", res.Rows)
	}
	if db2.WALCounters()["swept_versions"] == 0 {
		t.Fatal("recovery should have swept superseded versions")
	}
	// Writes keep working on the recovered chains.
	mustExec(t, s2, "UPDATE kv SET v = 13 WHERE id = 1")
	mustExec(t, s2, "INSERT INTO kv VALUES (3, 31)") // PK free again after delete
	res = mustExec(t, s2, "SELECT COUNT(*) FROM kv")
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("post-recovery writes: %v", res.Rows)
	}
}

// TestMVCCRandomizedOracle drives random inserts/updates/deletes through a
// single writer while comparing every read — both fresh snapshots and
// long-lived ones opened mid-history — against a plain map that applies the
// same operations. Snapshot reads must equal the map's state at BEGIN time;
// the final state must equal the map's final state.
func TestMVCCRandomizedOracle(t *testing.T) {
	type pinned struct {
		sess *Session
		want map[int]int // oracle state when the snapshot began
	}
	for _, seedV := range mvccSeeds(t, 1, 42) {
		t.Run(fmt.Sprintf("seed=%d", seedV), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seedV))
			t.Logf("rng seed %d (set STAGEDB_SEED to override)", seedV)
			db := NewDB(Config{})
			w := db.NewSession()
			mustExec(t, w, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")

			oracle := map[int]int{}
			var readers []pinned
			readAll := func(s *Session) map[int]int {
				res := mustExec(t, s, "SELECT id, v FROM t")
				got := make(map[int]int, len(res.Rows))
				for _, r := range res.Rows {
					got[int(r[0].Int())] = int(r[1].Int())
				}
				return got
			}
			diff := func(got, want map[int]int) string {
				if len(got) == len(want) {
					same := true
					for k, v := range want {
						if gv, ok := got[k]; !ok || gv != v {
							same = false
							break
						}
					}
					if same {
						return ""
					}
				}
				var keys []int
				for k := range want {
					keys = append(keys, k)
				}
				for k := range got {
					if _, ok := want[k]; !ok {
						keys = append(keys, k)
					}
				}
				sort.Ints(keys)
				var b strings.Builder
				for _, k := range keys {
					gv, gok := got[k]
					wv, wok := want[k]
					if gok != wok || gv != wv {
						fmt.Fprintf(&b, "key %d: got (%d,%v) want (%d,%v); ", k, gv, gok, wv, wok)
					}
				}
				return b.String()
			}

			const ops = 400
			const keys = 40
			for i := 0; i < ops; i++ {
				k := rng.Intn(keys)
				switch _, exists := oracle[k]; {
				case !exists:
					mustExec(t, w, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", k, i))
					oracle[k] = i
				case rng.Intn(3) == 0:
					mustExec(t, w, fmt.Sprintf("DELETE FROM t WHERE id = %d", k))
					delete(oracle, k)
				default:
					mustExec(t, w, fmt.Sprintf("UPDATE t SET v = %d WHERE id = %d", i, k))
					oracle[k] = i
				}

				// Occasionally pin a snapshot with the oracle state of this
				// instant, or resolve a pinned one against its frozen state.
				if rng.Intn(10) == 0 {
					rs := db.NewSession()
					mustExec(t, rs, "BEGIN")
					frozen := make(map[int]int, len(oracle))
					for k, v := range oracle {
						frozen[k] = v
					}
					readers = append(readers, pinned{sess: rs, want: frozen})
				}
				if len(readers) > 0 && rng.Intn(8) == 0 {
					p := readers[0]
					readers = readers[1:]
					if d := diff(readAll(p.sess), p.want); d != "" {
						t.Fatalf("op %d: pinned snapshot diverged from oracle: %s", i, d)
					}
					mustExec(t, p.sess, "COMMIT")
				}
				// Vacuum under load: must never disturb any snapshot above.
				if rng.Intn(50) == 0 {
					if _, err := db.Vacuum(context.Background()); err != nil {
						t.Fatalf("vacuum: %v", err)
					}
				}
			}
			for _, p := range readers {
				if d := diff(readAll(p.sess), p.want); d != "" {
					t.Fatalf("drain: pinned snapshot diverged from oracle: %s", d)
				}
				mustExec(t, p.sess, "COMMIT")
			}
			if d := diff(readAll(w), oracle); d != "" {
				t.Fatalf("final state diverged from oracle: %s", d)
			}
		})
	}
}
