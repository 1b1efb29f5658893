package stagedb

// Deadline-expiry sweep: a fake context whose Err() flips to
// DeadlineExceeded on its N-th call makes the deadline land, in turn, on
// every context check in the pipeline — the connect/parse/optimize/execute
// stage boundaries, the cursor's per-page checks, and everything between.
// For every landing point, on both engines, the error must normalize to the
// public taxonomy and the run must leak nothing.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// countdownCtx is a context.Context whose Err() starts returning
// context.DeadlineExceeded on its failAt-th call (1-based). Done() is a real
// channel, closed at expiry, so select-based waiters fire too.
type countdownCtx struct {
	mu      sync.Mutex
	calls   int
	failAt  int
	done    chan struct{}
	expired bool
}

func newCountdownCtx(failAt int) *countdownCtx {
	return &countdownCtx{failAt: failAt, done: make(chan struct{})}
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Done() <-chan struct{}       { return c.done }

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if !c.expired && c.calls >= c.failAt {
		c.expired = true
		close(c.done)
	}
	if c.expired {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *countdownCtx) sawCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func deadlineEngines(t *testing.T) map[string]Options {
	t.Helper()
	return map[string]Options{
		"staged":   {},
		"threaded": {Mode: Threaded},
	}
}

func assertDeadlineTaxonomy(t *testing.T, where string, err error) {
	t.Helper()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("%s: err = %v, want ErrTimeout", where, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("%s: err = %v, cause context.DeadlineExceeded unreachable", where, err)
	}
	if Retryable(err) {
		t.Fatalf("%s: a deadline expiry must not be retryable: %v", where, err)
	}
}

func assertNoEngineLeaks(t *testing.T, db *DB, where string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if db.PagePoolStats().Outstanding == 0 && db.SpillStats().FilesLive() == 0 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s: leaked — outstanding pages %d, spill files %d",
		where, db.PagePoolStats().Outstanding, db.SpillStats().FilesLive())
}

// TestDeadlineAtEveryBoundaryExec walks the deadline across every context
// check an Exec-path query passes: whichever boundary it lands on, the
// caller sees the taxonomy error and the engine leaks nothing.
func TestDeadlineAtEveryBoundaryExec(t *testing.T) {
	for name, opts := range deadlineEngines(t) {
		t.Run(name, func(t *testing.T) {
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.ExecContext(t.Context(), "CREATE TABLE t (a INT, b INT)"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				if _, err := db.ExecContext(t.Context(), "INSERT INTO t VALUES (?, ?)", i, i%7); err != nil {
					t.Fatal(err)
				}
			}
			conn := db.Conn()
			// ORDER BY forces a full pipeline (scan, sort, spill-eligible).
			const q = "SELECT t1.a FROM t t1, t t2 WHERE t1.b = t2.b ORDER BY t1.a"
			boundaries := 0
			for failAt := 1; ; failAt++ {
				if failAt > 10_000 {
					t.Fatal("query never completed even with a distant deadline")
				}
				ctx := newCountdownCtx(failAt)
				_, err := conn.ExecContext(ctx, q)
				if err == nil {
					// The deadline landed past the last check: the sweep has
					// covered every boundary this query crosses.
					if boundaries == 0 {
						t.Fatal("sweep found no context checks at all")
					}
					t.Logf("swept %d context checks (%d Err calls on the clean run)", boundaries, ctx.sawCalls())
					return
				}
				assertDeadlineTaxonomy(t, name, err)
				assertNoEngineLeaks(t, db, name)
				// The engine must stay healthy after every expiry.
				if failAt%7 == 0 {
					if _, err := db.ExecContext(t.Context(), "SELECT COUNT(*) FROM t"); err != nil {
						t.Fatalf("engine unhealthy after expiry at check %d: %v", failAt, err)
					}
				}
				boundaries++
			}
		})
	}
}

// TestDeadlineAtEveryBoundaryStream does the same walk down the streaming
// path: expiries before the first page fail QueryContext, expiries after it
// surface through Rows.Next/Err, and every abandoned pipeline must recycle
// its pages.
func TestDeadlineAtEveryBoundaryStream(t *testing.T) {
	for name, opts := range deadlineEngines(t) {
		t.Run(name, func(t *testing.T) {
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.ExecContext(t.Context(), "CREATE TABLE t (a INT, b INT)"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				if _, err := db.ExecContext(t.Context(), "INSERT INTO t VALUES (?, ?)", i, i%7); err != nil {
					t.Fatal(err)
				}
			}
			conn := db.Conn()
			const q = "SELECT t1.a, t2.a FROM t t1, t t2 WHERE t1.b = t2.b ORDER BY t1.a"
			for failAt := 1; ; failAt++ {
				if failAt > 10_000 {
					t.Fatal("stream never completed even with a distant deadline")
				}
				ctx := newCountdownCtx(failAt)
				rows, err := conn.QueryContext(ctx, q)
				if err != nil {
					assertDeadlineTaxonomy(t, name+" open", err)
					assertNoEngineLeaks(t, db, name)
					continue
				}
				for rows.Next() {
				}
				rerr := rows.Err()
				if cerr := rows.Close(); rerr == nil {
					rerr = cerr
				}
				if rerr == nil {
					assertNoEngineLeaks(t, db, name)
					return // clean full read: sweep complete
				}
				assertDeadlineTaxonomy(t, name+" mid-stream", rerr)
				assertNoEngineLeaks(t, db, name)
			}
		})
	}
}

// TestDeadlineMidTransaction expires a deadline inside an explicit
// transaction and proves the session recovers: the transaction can be rolled
// back and the connection reused.
func TestDeadlineMidTransaction(t *testing.T) {
	for name, opts := range deadlineEngines(t) {
		t.Run(name, func(t *testing.T) {
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.ExecContext(t.Context(), "CREATE TABLE t (a INT PRIMARY KEY)"); err != nil {
				t.Fatal(err)
			}
			conn := db.Conn()
			if _, err := conn.ExecContext(t.Context(), "BEGIN"); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.ExecContext(t.Context(), "INSERT INTO t VALUES (1)"); err != nil {
				t.Fatal(err)
			}
			ctx := newCountdownCtx(1) // expired before the first check
			_, err = conn.ExecContext(ctx, "INSERT INTO t VALUES (2)")
			assertDeadlineTaxonomy(t, name, err)
			if _, err := conn.ExecContext(t.Context(), "ROLLBACK"); err != nil {
				t.Fatalf("rollback after expiry: %v", err)
			}
			res, err := conn.ExecContext(t.Context(), "SELECT COUNT(*) FROM t")
			if err != nil || res.Rows[0][0].Int() != 0 {
				t.Fatalf("post-rollback state: res=%v err=%v", res, err)
			}
			assertNoEngineLeaks(t, db, name)
		})
	}
}

// TestDeadlineExecTxnLockWait expires a deadline while an ExecTxn statement
// waits on a table lock another connection holds: the statement fails with
// ErrTimeout, and the transaction is rolled back with its locks released.
func TestDeadlineExecTxnLockWait(t *testing.T) {
	for name, opts := range deadlineEngines(t) {
		t.Run(name, func(t *testing.T) {
			db := mustOpen(t, opts)
			defer db.Close()
			if err := db.ExecScript(t.Context(), `
				CREATE TABLE held (a INT PRIMARY KEY, b INT);
				CREATE TABLE other (a INT PRIMARY KEY);
				INSERT INTO held VALUES (1, 1);
			`); err != nil {
				t.Fatal(err)
			}
			holder := db.Conn()
			if _, err := holder.ExecContext(t.Context(), "BEGIN"); err != nil {
				t.Fatal(err)
			}
			if _, err := holder.ExecContext(t.Context(), "UPDATE held SET b = 2 WHERE a = 1"); err != nil {
				t.Fatal(err)
			}

			conn := db.Conn()
			ctx, cancel := context.WithTimeout(t.Context(), 100*time.Millisecond)
			defer cancel()
			_, err := conn.ExecTxn(ctx, []string{
				"BEGIN",
				"INSERT INTO other VALUES (1)",
				"UPDATE held SET b = 3 WHERE a = 1", // waits on holder's lock
				"COMMIT",
			})
			assertDeadlineTaxonomy(t, name, err)
			if conn.InTxn() {
				t.Fatal("ExecTxn left its transaction open")
			}

			// The script's lock on other is gone: a writer gets it at once,
			// and the rolled-back INSERT left no row behind.
			wctx, wcancel := context.WithTimeout(t.Context(), 5*time.Second)
			defer wcancel()
			if _, err := db.ExecContext(wctx, "INSERT INTO other VALUES (1)"); err != nil {
				t.Fatalf("insert after the timed-out script: %v", err)
			}
			if _, err := holder.ExecContext(t.Context(), "COMMIT"); err != nil {
				t.Fatal(err)
			}
			res, err := db.ExecContext(t.Context(), "SELECT b FROM held WHERE a = 1")
			if err != nil || res.Rows[0][0].Int() != 2 {
				t.Fatalf("held after commit: res=%v err=%v", res, err)
			}
			assertNoEngineLeaks(t, db, name)
		})
	}
}

// TestPrepareCanceled prepares uncached SQL under a canceled context: the
// error is the context's, and nothing enters the plan cache.
func TestPrepareCanceled(t *testing.T) {
	for name, opts := range deadlineEngines(t) {
		t.Run(name, func(t *testing.T) {
			db := mustOpen(t, opts)
			defer db.Close()
			if _, err := db.ExecContext(t.Context(), "CREATE TABLE t (a INT PRIMARY KEY)"); err != nil {
				t.Fatal(err)
			}
			before := db.PlanCacheStats().Entries
			ctx, cancel := context.WithCancel(t.Context())
			cancel()
			if _, err := db.Prepare(ctx, "SELECT a FROM t WHERE a = ?"); !errors.Is(err, context.Canceled) {
				t.Fatalf("Prepare under a canceled ctx: err = %v, want context.Canceled", err)
			}
			if after := db.PlanCacheStats().Entries; after != before {
				t.Fatalf("plan cache entries %d -> %d: a canceled Prepare cached its plan", before, after)
			}
			if _, err := db.Prepare(t.Context(), "SELECT a FROM t WHERE a = ?"); err != nil {
				t.Fatalf("Prepare after the canceled one: %v", err)
			}
		})
	}
}
