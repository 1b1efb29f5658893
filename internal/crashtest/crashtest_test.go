// Package crashtest is a subprocess fault-injection harness for the durable
// engine: a child process runs a mixed insert/update workload against a data
// directory, acknowledging each commit in a side file only after ExecScript
// returns; the parent SIGKILLs it at a randomized point — including
// mid-checkpoint and mid-group-commit — reopens the directory in-process,
// and verifies that every acknowledged transaction is present and complete,
// that no transaction is half-applied, and that recovery left no orphaned
// spill files.
package crashtest

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"stagedb"
)

// Transaction k inserts rows 3k and 3k+1 (v = id) and, for k > 1, updates
// row 3(k-1) to v += 100. Row ids mod 3 are {0, 1}, update targets are
// multiples of 3, so the scheme never collides and every row's expected
// value is a pure function of which transactions committed.

const ackFile = "acks.log"

func TestCrashChild(t *testing.T) {
	dir := os.Getenv("STAGEDB_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-harness child; driven by TestCrashRecoveryProperty")
	}
	if err := childMain(t.Context(), dir); err != nil {
		t.Fatalf("child: %v", err)
	}
}

func childMain(ctx context.Context, dir string) error {
	db, err := stagedb.Open(stagedb.Options{
		DataDir: dir,
		// A small log budget makes background checkpoints (and their log
		// rotations) frequent, so kills land mid-checkpoint too.
		CheckpointBytes: 16 << 10,
	})
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	defer db.Close()
	if _, err := db.ExecContext(ctx, "CREATE TABLE kv (id INT PRIMARY KEY, v INT)"); err != nil && !strings.Contains(err.Error(), "exists") {
		return fmt.Errorf("create: %w", err)
	}
	start, err := maxVisibleTxn(ctx, db)
	if err != nil {
		return err
	}
	start++
	acks, err := os.OpenFile(filepath.Join(dir, ackFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer acks.Close()
	for k := start; ; k++ {
		script := fmt.Sprintf("BEGIN; INSERT INTO kv VALUES (%d, %d), (%d, %d);", 3*k, 3*k, 3*k+1, 3*k+1)
		if k > 1 {
			script += fmt.Sprintf(" UPDATE kv SET v = v + 100 WHERE id = %d;", 3*(k-1))
		}
		script += " COMMIT;"
		if err := db.ExecScript(ctx, script); err != nil {
			return fmt.Errorf("txn %d: %w", k, err)
		}
		// The commit is acknowledged only after ExecScript returned: write
		// and fsync the ack so the parent can trust it survived the kill.
		if _, err := fmt.Fprintf(acks, "%d\n", k); err != nil {
			return err
		}
		if err := acks.Sync(); err != nil {
			return err
		}
		// Keep auxiliary machinery live at kill time: an ORDER BY query
		// (spill path) and an explicit checkpoint (log rotation).
		if k%7 == 0 {
			if _, err := db.ExecContext(ctx, "SELECT id FROM kv ORDER BY v"); err != nil {
				return fmt.Errorf("query at %d: %w", k, err)
			}
		}
		if k%11 == 0 {
			if err := db.Checkpoint(); err != nil {
				return fmt.Errorf("checkpoint at %d: %w", k, err)
			}
		}
	}
}

// maxVisibleTxn lets a restarted child resume numbering after the rows that
// already committed (acked or not).
func maxVisibleTxn(ctx context.Context, db *stagedb.DB) (int, error) {
	res, err := db.ExecContext(ctx, "SELECT id FROM kv ORDER BY id DESC LIMIT 1")
	if err != nil {
		return 0, err
	}
	if len(res.Rows) == 0 {
		return 0, nil
	}
	return int(res.Rows[0][0].Int()) / 3, nil
}

func TestCrashRecoveryProperty(t *testing.T) {
	if os.Getenv("STAGEDB_CRASH_DIR") != "" {
		t.Skip("running as child")
	}
	iters := 10
	if s := os.Getenv("STAGEDB_CRASH_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("STAGEDB_CRASH_ITERS: %v", err)
		}
		iters = n
	} else if testing.Short() {
		iters = 4
	}
	seed := time.Now().UnixNano()
	if s := os.Getenv("STAGEDB_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("STAGEDB_SEED: %v", err)
		}
		seed = n
	}
	t.Logf("crash harness seed: %d (rerun with STAGEDB_SEED=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	dir := t.TempDir()
	prevMaxK := 0
	for i := 0; i < iters; i++ {
		delay := time.Duration(10+rng.Intn(240)) * time.Millisecond
		runChildAndKill(t, dir, delay)
		prevMaxK = verify(t, dir, i, delay, prevMaxK)
	}
}

func runChildAndKill(t *testing.T, dir string, delay time.Duration) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestCrashChild")
	cmd.Env = append(os.Environ(), "STAGEDB_CRASH_DIR="+dir)
	out := &strings.Builder{}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	time.Sleep(delay)
	cmd.Process.Signal(syscall.SIGKILL)
	err := cmd.Wait()
	// SIGKILL is the expected exit; a child that finished on its own hit a
	// workload error worth failing on.
	if ee, ok := err.(*exec.ExitError); !ok || ee.ProcessState.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("child exited on its own (err=%v):\n%s", err, out.String())
	}
}

// verify reopens the directory after a kill, checks it, and returns the
// highest visible transaction. prevMaxK is that figure from the previous
// iteration.
func verify(t *testing.T, dir string, iter int, delay time.Duration, prevMaxK int) int {
	t.Helper()
	acked := readAcks(t, dir)
	db, err := stagedb.Open(stagedb.Options{DataDir: dir})
	if err != nil {
		t.Fatalf("iter %d (killed after %v): reopen: %v", iter, delay, err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", iter, err)
		}
	}()
	res, err := db.ExecContext(t.Context(), "SELECT id, v FROM kv ORDER BY id")
	if err != nil {
		if acked == 0 && strings.Contains(err.Error(), "kv") {
			return 0 // killed before CREATE TABLE committed; nothing to check
		}
		t.Fatalf("iter %d: select: %v", iter, err)
	}
	rows := map[int]int{}
	for _, r := range res.Rows {
		id := int(r[0].Int())
		if old, dup := rows[id]; dup {
			// Two visible versions of one primary key: a recovered engine
			// reused a txn id from the log and aliased an old version stamp.
			t.Fatalf("iter %d: duplicate visible id %d (v=%d and v=%d)", iter, id, old, int(r[1].Int()))
		}
		rows[id] = int(r[1].Int())
	}
	visible := map[int]bool{}
	maxK := 0
	for id := range rows {
		if id%3 == 0 {
			k := id / 3
			visible[k] = true
			if k > maxK {
				maxK = k
			}
		}
	}
	// Durability: every acknowledged transaction survived.
	for k := 1; k <= acked; k++ {
		if !visible[k] {
			t.Fatalf("iter %d: acked txn %d lost after crash (killed after %v)", iter, k, delay)
		}
	}
	// Each child has at most one commit in flight beyond its last ack. A
	// child resumes after the highest visible transaction, acked or not, so
	// an unacked commit of the previous iteration plus this child's
	// unacked first commit make two beyond the last ack.
	if maxK > max(acked, prevMaxK)+1 {
		t.Fatalf("iter %d: txn %d visible but only %d acked (previous max visible %d) — unacked work leaked",
			iter, maxK, acked, prevMaxK)
	}
	// Atomicity and value correctness for every visible transaction.
	for k := 1; k <= maxK; k++ {
		if !visible[k] {
			t.Fatalf("iter %d: txn gap at %d (max visible %d)", iter, k, maxK)
		}
		if _, ok := rows[3*k+1]; !ok {
			t.Fatalf("iter %d: txn %d half-applied: row %d missing", iter, k, 3*k+1)
		}
		if v := rows[3*k+1]; v != 3*k+1 {
			t.Fatalf("iter %d: row %d has v=%d", iter, 3*k+1, v)
		}
		want := 3 * k
		if visible[k+1] {
			want += 100 // the next txn's update committed with it
		}
		if v := rows[3*k]; v != want {
			t.Fatalf("iter %d: row %d has v=%d want %d (txn %d committed=%v)", iter, 3*k, v, want, k+1, visible[k+1])
		}
	}
	// Stray rows would mean a loser insert survived undo.
	for id := range rows {
		if k := id / 3; id%3 > 1 || k < 1 || k > maxK {
			t.Fatalf("iter %d: unexpected row id %d", iter, id)
		}
	}
	// GC after recovery: with no snapshot open, Vacuum must reclaim every
	// dead version the update chain left behind, and none may be orphaned.
	if _, err := db.Vacuum(t.Context()); err != nil {
		t.Fatalf("iter %d: vacuum after recovery: %v", iter, err)
	}
	live, dead, err := db.TableVersions("kv")
	if err != nil {
		t.Fatalf("iter %d: table versions: %v", iter, err)
	}
	if dead != 0 {
		t.Fatalf("iter %d: %d orphan dead versions after GC + recovery", iter, dead)
	}
	if int(live) != len(rows) {
		t.Fatalf("iter %d: %d live versions but %d visible rows", iter, live, len(rows))
	}
	// Recovery swept the spill dir and no spill file is live after reopen.
	if live := db.SpillStats().FilesLive(); live != 0 {
		t.Fatalf("iter %d: %d spill files live after recovery", iter, live)
	}
	spillDir := filepath.Join(dir, "spill")
	entries, err := os.ReadDir(spillDir)
	if err == nil {
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "stagedb-spill-") {
				t.Fatalf("iter %d: orphaned spill file %s after recovery", iter, e.Name())
			}
		}
	}
	return maxK
}

// readAcks returns the highest fully-written ack; a torn last line (the kill
// can land mid-ack) is ignored.
func readAcks(t *testing.T, dir string) int {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, ackFile))
	if err != nil {
		return 0
	}
	defer f.Close()
	max := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if n, err := strconv.Atoi(strings.TrimSpace(sc.Text())); err == nil && n > max {
			max = n
		}
	}
	return max
}
