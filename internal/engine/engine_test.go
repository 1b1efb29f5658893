package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"stagedb/internal/sql"
	"stagedb/internal/value"
)

// execSQL parses q and runs it on s under the test's context.
func execSQL(tb testing.TB, s *Session, q string) (*Result, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	return s.RunStmt(tb.Context(), stmt, nil)
}

// newRequest builds a request for q on sess under the test's context.
func newRequest(tb testing.TB, sess *Session, q string) *Request {
	return &Request{Session: sess, SQL: q, Ctx: tb.Context(), Done: make(chan struct{})}
}

// submitSQL runs q through the front end f and waits for it.
func submitSQL(tb testing.TB, f *Staged, sess *Session, q string) (*Result, error) {
	req := newRequest(tb, sess, q)
	if err := f.Submit(req); err != nil {
		return nil, err
	}
	return req.Wait()
}

func mustExec(t *testing.T, s *Session, q string) *Result {
	t.Helper()
	res, err := execSQL(t, s, q)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res
}

func seed(t *testing.T) (*DB, *Session) {
	t.Helper()
	db := NewDB(Config{})
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance FLOAT)")
	mustExec(t, s, "INSERT INTO accounts VALUES (1, 'ann', 100), (2, 'bob', 50), (3, 'carol', 200)")
	return db, s
}

func TestDDLDMLSelectRoundTrip(t *testing.T) {
	_, s := seed(t)
	res := mustExec(t, s, "SELECT owner, balance FROM accounts WHERE balance >= 100 ORDER BY balance DESC")
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Rows[0][0].Text() != "carol" || res.Rows[1][0].Text() != "ann" {
		t.Fatalf("order: %v", res.Rows)
	}
	if res.Columns[0] != "owner" || res.Columns[1] != "balance" {
		t.Fatalf("columns: %v", res.Columns)
	}
}

func TestInsertWithColumnListAndNullDefaults(t *testing.T) {
	_, s := seed(t)
	mustExec(t, s, "INSERT INTO accounts (id, owner) VALUES (4, 'dave')")
	res := mustExec(t, s, "SELECT balance FROM accounts WHERE id = 4")
	if len(res.Rows) != 1 || !res.Rows[0][0].IsNull() {
		t.Fatalf("unset column should be NULL: %v", res.Rows)
	}
}

func TestPrimaryKeyUnique(t *testing.T) {
	_, s := seed(t)
	if _, err := execSQL(t, s, "INSERT INTO accounts VALUES (1, 'dup', 0)"); err == nil {
		t.Fatal("duplicate PK should fail")
	}
	// Autocommit rollback must leave no trace.
	res := mustExec(t, s, "SELECT COUNT(*) FROM accounts")
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("count after failed insert: %v", res.Rows)
	}
}

func TestUpdateAndDelete(t *testing.T) {
	_, s := seed(t)
	res := mustExec(t, s, "UPDATE accounts SET balance = balance + 10 WHERE id = 2")
	if res.Affected != 1 {
		t.Fatalf("affected=%d", res.Affected)
	}
	out := mustExec(t, s, "SELECT balance FROM accounts WHERE id = 2")
	if out.Rows[0][0].Float() != 60 {
		t.Fatalf("balance: %v", out.Rows)
	}
	res = mustExec(t, s, "DELETE FROM accounts WHERE balance < 100")
	if res.Affected != 1 {
		t.Fatalf("deleted=%d", res.Affected)
	}
	out = mustExec(t, s, "SELECT COUNT(*) FROM accounts")
	if out.Rows[0][0].Int() != 2 {
		t.Fatalf("count: %v", out.Rows)
	}
}

func TestExplicitTransactionCommit(t *testing.T) {
	db, s := seed(t)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE accounts SET balance = 0 WHERE id = 1")
	mustExec(t, s, "COMMIT")
	s2 := db.NewSession()
	res := mustExec(t, s2, "SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Float() != 0 {
		t.Fatalf("committed update lost: %v", res.Rows)
	}
}

func TestRollbackUndoesEverything(t *testing.T) {
	_, s := seed(t)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO accounts VALUES (9, 'temp', 1)")
	mustExec(t, s, "UPDATE accounts SET balance = 999 WHERE id = 1")
	mustExec(t, s, "DELETE FROM accounts WHERE id = 2")
	mustExec(t, s, "ROLLBACK")

	res := mustExec(t, s, "SELECT COUNT(*) FROM accounts")
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("count after rollback: %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Float() != 100 {
		t.Fatalf("update not undone: %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT owner FROM accounts WHERE id = 2")
	if len(res.Rows) != 1 {
		t.Fatal("delete not undone")
	}
	res = mustExec(t, s, "SELECT * FROM accounts WHERE id = 9")
	if len(res.Rows) != 0 {
		t.Fatal("insert not undone")
	}
}

func TestRollbackRestoresIndexes(t *testing.T) {
	_, s := seed(t)
	mustExec(t, s, "CREATE INDEX idx_owner ON accounts (owner)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE accounts SET owner = 'zelda' WHERE id = 1")
	mustExec(t, s, "ROLLBACK")
	res := mustExec(t, s, "SELECT id FROM accounts WHERE owner = 'ann'")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("index lookup after rollback: %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT id FROM accounts WHERE owner = 'zelda'")
	if len(res.Rows) != 0 {
		t.Fatal("stale index entry after rollback")
	}
}

func TestIndexMaintainedAcrossUpdates(t *testing.T) {
	db, s := seed(t)
	mustExec(t, s, "CREATE INDEX idx_bal ON accounts (balance)")
	mustExec(t, s, "UPDATE accounts SET balance = 500 WHERE id = 2")
	if err := db.Analyze("accounts"); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, "SELECT owner FROM accounts WHERE balance = 500")
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "bob" {
		t.Fatalf("index after update: %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT owner FROM accounts WHERE balance = 50")
	if len(res.Rows) != 0 {
		t.Fatal("stale index entry")
	}
}

func TestDropTable(t *testing.T) {
	_, s := seed(t)
	mustExec(t, s, "DROP TABLE accounts")
	if _, err := execSQL(t, s, "SELECT * FROM accounts"); err == nil {
		t.Fatal("select from dropped table should fail")
	}
	mustExec(t, s, "CREATE TABLE accounts (id INT)")
	res := mustExec(t, s, "SELECT COUNT(*) FROM accounts")
	if res.Rows[0][0].Int() != 0 {
		t.Fatal("recreated table should be empty")
	}
}

// TestCrashRecoveryReplay crashes a durable database (no Close, no
// checkpoint) with committed DML and one transaction still open, and
// reopens it: recovery replays the log's committed work, loses the open
// transaction, and rebuilds the primary-key index.
func TestCrashRecoveryReplay(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance FLOAT)")
	mustExec(t, s, "INSERT INTO accounts VALUES (1, 'ann', 100), (2, 'bob', 50), (3, 'carol', 200)")
	mustExec(t, s, "UPDATE accounts SET balance = 77 WHERE id = 3")
	mustExec(t, s, "DELETE FROM accounts WHERE id = 2")
	// An uncommitted transaction lost in the crash.
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE accounts SET balance = -1 WHERE id = 1")

	db2 := openDurable(t, dir)
	defer db2.Close()
	s2 := db2.NewSession()
	res := mustExec(t, s2, "SELECT COUNT(*) FROM accounts")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("recovered count: %v", res.Rows)
	}
	res = mustExec(t, s2, "SELECT balance FROM accounts WHERE id = 3")
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 77 {
		t.Fatalf("recovered update (by index): %v", res.Rows)
	}
	res = mustExec(t, s2, "SELECT balance FROM accounts WHERE id = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 100 {
		t.Fatalf("uncommitted update must not be replayed: %v", res.Rows)
	}
	if res = mustExec(t, s2, "SELECT owner FROM accounts WHERE id = 2"); len(res.Rows) != 0 {
		t.Fatalf("recovered delete: %v", res.Rows)
	}
}

func TestThreadedFrontEndConcurrentClients(t *testing.T) {
	db, s := seed(t)
	fe := NewThreaded(db, 8)
	defer fe.Close()
	_ = s
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := db.NewSession()
			for i := 0; i < 8; i++ {
				id := 100 + c*10 + i
				if _, err := submitSQL(t, fe, sess, fmt.Sprintf("INSERT INTO accounts VALUES (%d, 'c%d', %d)", id, c, i)); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res := mustExec(t, db.NewSession(), "SELECT COUNT(*) FROM accounts")
	if res.Rows[0][0].Int() != 3+64 {
		t.Fatalf("count: %v", res.Rows)
	}
}

func TestStagedFrontEndMatchesThreaded(t *testing.T) {
	db, _ := seed(t)
	staged := NewStaged(db, StagedConfig{})
	defer staged.Close()
	sess := db.NewSession()

	res, err := submitSQL(t, staged, sess, "SELECT owner FROM accounts WHERE balance > 60 ORDER BY owner")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Text() != "ann" || res.Rows[1][0].Text() != "carol" {
		t.Fatalf("staged select: %v", res.Rows)
	}

	// DML through the staged pipeline.
	if _, err := submitSQL(t, staged, sess, "INSERT INTO accounts VALUES (7, 'gail', 10)"); err != nil {
		t.Fatal(err)
	}
	res, err = submitSQL(t, staged, sess, "SELECT COUNT(*) FROM accounts")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("staged count: %v", res.Rows)
	}

	// Parse errors surface to the caller.
	if _, err := submitSQL(t, staged, sess, "SELEKT nope"); err == nil {
		t.Fatal("staged parse error lost")
	}
}

func TestStagedConcurrentClients(t *testing.T) {
	db, _ := seed(t)
	staged := NewStaged(db, StagedConfig{})
	defer staged.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for c := 0; c < 10; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := db.NewSession()
			for i := 0; i < 10; i++ {
				res, err := submitSQL(t, staged, sess, "SELECT COUNT(*) FROM accounts")
				if err != nil {
					errs <- err
					return
				}
				if res.Rows[0][0].Int() != 3 {
					errs <- fmt.Errorf("count=%v", res.Rows)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Stage monitors saw the traffic.
	for _, snap := range staged.Snapshot() {
		if snap.Name == "parse" && snap.Serviced != 100 {
			t.Fatalf("parse stage serviced %d, want 100", snap.Serviced)
		}
	}
}

func TestStagedJoinUsesExecStages(t *testing.T) {
	db, _ := seed(t)
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE owners (name TEXT, city TEXT)")
	mustExec(t, s, "INSERT INTO owners VALUES ('ann', 'nyc'), ('bob', 'sf')")
	staged := NewStaged(db, StagedConfig{})
	defer staged.Close()
	sess := db.NewSession()
	res, err := submitSQL(t, staged, sess, `SELECT a.owner, o.city FROM accounts a JOIN owners o ON a.owner = o.name ORDER BY a.owner`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].Text() != "nyc" {
		t.Fatalf("staged join: %v", res.Rows)
	}
	found := false
	for _, snap := range staged.Snapshot() {
		if snap.Name == "join" && snap.Enqueued > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("join stage monitor saw no tasks")
	}
}

func TestDeadlockVictimAborted(t *testing.T) {
	db, s := seed(t)
	mustExec(t, s, "CREATE TABLE other (id INT)")
	mustExec(t, s, "INSERT INTO other VALUES (1)")

	s1, s2 := db.NewSession(), db.NewSession()
	mustExec(t, s1, "BEGIN")
	mustExec(t, s2, "BEGIN")
	mustExec(t, s1, "UPDATE accounts SET balance = 1 WHERE id = 1") // s1 locks accounts
	mustExec(t, s2, "UPDATE other SET id = 2")                      // s2 locks other

	done := make(chan error, 1)
	go func() {
		_, err := execSQL(t, s1, "UPDATE other SET id = 3") // s1 waits on s2
		done <- err
	}()
	// Let s1 block on s2 before closing the cycle, so the victim choice is
	// deterministic: s2's request detects the cycle and aborts.
	time.Sleep(50 * time.Millisecond)
	_, err := execSQL(t, s2, "UPDATE accounts SET balance = 2 WHERE id = 1")
	if err == nil {
		t.Fatal("deadlock victim should get an error")
	}
	if err := <-done; err != nil {
		t.Fatalf("survivor should proceed: %v", err)
	}
	mustExec(t, s1, "COMMIT")
}

func TestExplainPlan(t *testing.T) {
	db, s := seed(t)
	_ = s
	stmt := sql.MustParse("SELECT owner FROM accounts WHERE id = 1").(*sql.Select)
	node, err := db.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if node.Schema()[0].Name != "owner" {
		t.Fatalf("plan schema: %v", node.Schema())
	}
}

func TestStatementErrors(t *testing.T) {
	_, s := seed(t)
	bad := []string{
		"INSERT INTO nope VALUES (1)",
		"INSERT INTO accounts VALUES (10)",
		"INSERT INTO accounts (nope) VALUES (1)",
		"UPDATE nope SET a = 1",
		"UPDATE accounts SET nope = 1",
		"DELETE FROM nope",
		"DROP TABLE nope",
		"CREATE INDEX i ON nope (x)",
		"COMMIT",
		"ROLLBACK",
	}
	for _, q := range bad {
		if _, err := execSQL(t, s, q); err == nil {
			t.Fatalf("%q should fail", q)
		}
	}
	mustExec(t, s, "BEGIN")
	if _, err := execSQL(t, s, "BEGIN"); err == nil {
		t.Fatal("nested BEGIN should fail")
	}
	mustExec(t, s, "COMMIT")
}

func TestValuesArithmetic(t *testing.T) {
	_, s := seed(t)
	mustExec(t, s, "INSERT INTO accounts VALUES (10 + 5, 'calc', 2 * 50.5)")
	res := mustExec(t, s, "SELECT balance FROM accounts WHERE id = 15")
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 101 {
		t.Fatalf("arith values: %v", res.Rows)
	}
	if _, err := execSQL(t, s, "INSERT INTO accounts VALUES (1/0, 'x', 0)"); err == nil {
		t.Fatal("division by zero in VALUES should fail")
	}
}

func TestGroupByThroughEngine(t *testing.T) {
	value_ := value.NewInt // silence unused import if rows unused
	_ = value_
	_, s := seed(t)
	mustExec(t, s, "INSERT INTO accounts VALUES (4, 'ann', 50)")
	res := mustExec(t, s, "SELECT owner, SUM(balance) FROM accounts GROUP BY owner ORDER BY owner")
	if len(res.Rows) != 3 {
		t.Fatalf("groups: %v", res.Rows)
	}
	if res.Rows[0][0].Text() != "ann" || res.Rows[0][1].Float() != 150 {
		t.Fatalf("ann sum: %v", res.Rows[0])
	}
}

// TestSubmitAfterClose reproduces the "send on closed channel" panic:
// submitting after Close must fail the request with ErrClosed on either front
// end.
func TestSubmitAfterClose(t *testing.T) {
	for _, fe := range []struct {
		name string
		open func(*DB) *Staged
	}{
		{"threaded", func(db *DB) *Staged { return NewThreaded(db, 1) }},
		{"staged", func(db *DB) *Staged { return NewStaged(db, StagedConfig{}) }},
	} {
		t.Run(fe.name, func(t *testing.T) {
			db, _ := seed(t)
			pool := fe.open(db)
			sess := db.NewSession()
			if _, err := submitSQL(t, pool, sess, "SELECT COUNT(*) FROM accounts"); err != nil {
				t.Fatal(err)
			}
			pool.Close()
			req := newRequest(t, sess, "SELECT COUNT(*) FROM accounts")
			if err := pool.Submit(req); !errors.Is(err, ErrClosed) { // must not panic
				t.Fatalf("submit after close: err = %v, want ErrClosed", err)
			}
			pool.Close() // idempotent
		})
	}
}

// TestSubmitWithoutContext: a request without Ctx is refused at Submit, on
// both front ends and for every itinerary, and nothing waits on it.
func TestSubmitWithoutContext(t *testing.T) {
	db, _ := seed(t)
	for _, fe := range []*Staged{NewThreaded(db, 1), NewStaged(db, StagedConfig{})} {
		sess := db.NewSession()
		for _, req := range []*Request{
			{Session: sess, SQL: "SELECT COUNT(*) FROM accounts"},
			{Session: sess, SQL: "SELECT COUNT(*) FROM accounts", PrepareOnly: true},
			{Session: sess, Script: []string{"BEGIN", "COMMIT"}},
		} {
			req.Done = make(chan struct{})
			if err := fe.Submit(req); err == nil {
				t.Fatalf("Submit of %+v without Ctx succeeded", req)
			}
		}
		if n := fe.InFlight(); n != 0 {
			t.Fatalf("%d requests in flight after refused submits", n)
		}
		// The front end still serves a request that carries a context.
		if _, err := submitSQL(t, fe, sess, "SELECT COUNT(*) FROM accounts"); err != nil {
			t.Fatal(err)
		}
		fe.Close()
	}
}

// waitFor polls cond for up to 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockedExecute is a front end with one execute worker, which waits on a
// table lock taken by an open transaction on a direct Session.
type blockedExecute struct {
	db      *DB
	staged  *Staged
	holder  *Session // holds the table lock until closeAndRelease
	before  int      // goroutines before NewStaged
	blocked *Request // the UPDATE in service at execute
	queued  []*Request
}

// oneExecuteWorker is the staged front end with one worker per query stage.
func oneExecuteWorker(db *DB) *Staged { return NewStaged(db, StagedConfig{Workers: 1}) }

// newBlockedExecute blocks the execute worker of the front end open starts
// on an UPDATE and queues three SELECTs behind it.
func newBlockedExecute(t *testing.T, open func(*DB) *Staged) *blockedExecute {
	t.Helper()
	db, _ := seed(t)
	f := &blockedExecute{db: db, before: runtime.NumGoroutine()}
	f.staged = open(db)
	f.holder = db.NewSession()
	mustExec(t, f.holder, "BEGIN")
	mustExec(t, f.holder, "UPDATE accounts SET balance = 1 WHERE id = 1")

	submit := func(q string) *Request {
		t.Helper()
		req := newRequest(t, db.NewSession(), q)
		if err := f.staged.Submit(req); err != nil {
			t.Fatal(err)
		}
		return req
	}
	f.blocked = submit("UPDATE accounts SET balance = 2 WHERE id = 2")
	// Parked on the table lock, the UPDATE is past every closed check its
	// worker makes before serving it: Close can no longer fail it first.
	waitFor(t, "the UPDATE to wait on the table lock", func() bool {
		return db.tm.Locks.Waiters("table:accounts") == 1
	})
	for i := 0; i < 3; i++ {
		f.queued = append(f.queued, submit("SELECT COUNT(*) FROM accounts"))
	}
	waitFor(t, "three requests queued at execute", func() bool { return f.staged.ExecuteQueueLen() == 3 })
	return f
}

// closeAndRelease starts Close while the execute worker is blocked, then
// rolls the lock holder back. Close must return, every request must finish,
// and no goroutine may be left behind.
func (f *blockedExecute) closeAndRelease(t *testing.T) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		f.staged.Close()
		close(closed)
	}()
	waitFor(t, "Close to start", f.staged.closed.Load)
	mustExec(t, f.holder, "ROLLBACK")
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the lock holder rolled back")
	}
	for _, req := range append([]*Request{f.blocked}, f.queued...) {
		select {
		case <-req.Done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%q stranded after Close", req.SQL)
		}
	}
	waitFor(t, "goroutines back to baseline", func() bool { return runtime.NumGoroutine() <= f.before })
}

// TestStagedBackPressureBlocksOnlyProducer: requests bound for a blocked
// execute stage queue up behind it, but requests whose route skips execute
// keep running (§4.1.1: a blocked stage stalls only what flows into it).
func TestStagedBackPressureBlocksOnlyProducer(t *testing.T) {
	f := newBlockedExecute(t, oneExecuteWorker)
	staged := f.staged

	// within runs fn, failing the test if the blocked stage holds it up.
	within := func(what string, fn func() error) error {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- fn() }()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatalf("%s waited on the blocked execute stage", what)
			return nil
		}
	}
	// Prepare routes connect -> parse -> optimize -> disconnect.
	if err := within("prepare", func() error {
		_, err := staged.Prepare(t.Context(), f.db.NewSession(), "SELECT owner FROM accounts WHERE id = ?")
		return err
	}); err != nil {
		t.Fatalf("prepare while execute is blocked: %v", err)
	}
	executeArrivals := func() int64 {
		for _, snap := range staged.Snapshot() {
			if snap.Name == "execute" {
				return snap.Enqueued
			}
		}
		t.Fatal("no execute stage in Snapshot")
		return 0
	}
	arrived := executeArrivals()
	if err := within("a parse error", func() error {
		_, err := submitSQL(t, staged, f.db.NewSession(), "SELEKT nope")
		return err
	}); err == nil {
		t.Fatal("parse error lost")
	}
	if got := executeArrivals(); got != arrived {
		t.Fatalf("a failed parse visited execute: %d arrivals, was %d", got, arrived)
	}
	select {
	case <-f.blocked.Done:
		t.Fatal("UPDATE finished while its table lock was held")
	default:
	}
	if got := staged.ExecuteQueueLen(); got != 3 {
		t.Fatalf("execute queue = %d while blocked, want 3", got)
	}
	f.closeAndRelease(t)
}

// TestStagedStopFailsQueuedPackets: requests still queued at execute when
// Close starts finish with ErrClosed instead of vanishing.
func TestStagedStopFailsQueuedPackets(t *testing.T) {
	f := newBlockedExecute(t, oneExecuteWorker)
	f.closeAndRelease(t)
	for i, req := range f.queued {
		if !errors.Is(req.Err, ErrClosed) {
			t.Fatalf("queued request %d: err = %v, want ErrClosed", i, req.Err)
		}
	}
}

// TestStagedStopDeliversInFlightPackets: the request in service at execute
// when Close starts is forwarded to disconnect once its lock is released;
// it finishes with ErrClosed rather than stranding its client.
func TestStagedStopDeliversInFlightPackets(t *testing.T) {
	f := newBlockedExecute(t, oneExecuteWorker)
	f.closeAndRelease(t)
	if !errors.Is(f.blocked.Err, ErrClosed) {
		t.Fatalf("in-flight UPDATE: err = %v, want ErrClosed", f.blocked.Err)
	}
}

// TestThreadedStopFailsQueuedPackets: on the threaded baseline, requests
// queued at its one stage when Close starts finish with ErrClosed, while the
// request in service carries on to disconnect on its worker, and no
// goroutine is left behind.
func TestThreadedStopFailsQueuedPackets(t *testing.T) {
	f := newBlockedExecute(t, func(db *DB) *Staged { return NewThreaded(db, 1) })
	f.closeAndRelease(t)
	for i, req := range f.queued {
		if !errors.Is(req.Err, ErrClosed) {
			t.Fatalf("queued request %d: err = %v, want ErrClosed", i, req.Err)
		}
	}
	if f.blocked.Err != nil {
		t.Fatalf("in-service UPDATE: %v", f.blocked.Err)
	}
}

// TestThreadedPrepare: the threaded baseline prepares along the staged
// prepare-only itinerary collapsed into its one stage, so a plan-cache miss
// is one visit to execute and the next Prepare is a cache hit that visits
// no stage.
func TestThreadedPrepare(t *testing.T) {
	db, _ := seed(t)
	threaded := NewThreaded(db, 2)
	defer threaded.Close()
	arrivals := func() int64 {
		t.Helper()
		snaps := threaded.ExecPool().Snapshot()
		if len(snaps) != 1 || snaps[0].Name != "execute" || snaps[0].Workers != 2 {
			t.Fatalf("threaded stages: %+v, want one execute stage with 2 workers", snaps)
		}
		return snaps[0].Enqueued
	}
	const q = "SELECT owner FROM accounts WHERE id = ?"
	before := db.PlanCacheStats()
	p, err := threaded.Prepare(t.Context(), db.NewSession(), q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Node == nil || p.NumParams != 1 {
		t.Fatalf("prepared entry: node %v, %d params", p.Node, p.NumParams)
	}
	if got := arrivals(); got != 1 {
		t.Fatalf("a miss made %d execute arrivals, want 1", got)
	}
	if st := db.PlanCacheStats(); st.Misses != before.Misses+1 || st.Hits != before.Hits {
		t.Fatalf("after a miss: %+v, was %+v", st, before)
	}
	again, err := threaded.Prepare(t.Context(), db.NewSession(), q)
	if err != nil {
		t.Fatal(err)
	}
	if again != p {
		t.Fatal("second Prepare did not return the cached entry")
	}
	if got := arrivals(); got != 1 {
		t.Fatalf("a hit made %d execute arrivals, want 1 in all", got)
	}
	if st := db.PlanCacheStats(); st.Hits != before.Hits+1 {
		t.Fatalf("after a hit: %+v, was %+v", st, before)
	}
}

// TestStagedCloseNeverStrandsClients races queries against Staged.Close:
// every Wait must return (result or error) — the pre-fix behaviour dropped
// in-flight packets on shutdown, hanging the client forever.
func TestStagedCloseNeverStrandsClients(t *testing.T) {
	db, _ := seed(t)
	staged := NewStaged(db, StagedConfig{})
	var wg sync.WaitGroup
	returned := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			for i := 0; i < 50; i++ {
				req := newRequest(t, sess, "SELECT COUNT(*) FROM accounts")
				if err := staged.Submit(req); err != nil {
					return // queue refused the request: fine, client informed
				}
				req.Wait() // must always return
			}
		}()
	}
	go func() {
		wg.Wait()
		close(returned)
	}()
	time.Sleep(5 * time.Millisecond)
	staged.Close()
	select {
	case <-returned:
	case <-time.After(30 * time.Second):
		t.Fatal("client stranded in Request.Wait after Staged.Close")
	}
}

// TestStagedExecPoolMonitoring checks that the pooled exec scheduler feeds
// per-stage queue/service metrics into the engine's monitor surface.
func TestStagedExecPoolMonitoring(t *testing.T) {
	db, _ := seed(t)
	staged := NewStaged(db, StagedConfig{ExecWorkers: 2})
	defer staged.Close()
	sess := db.NewSession()
	if _, err := submitSQL(t, staged, sess, "SELECT owner, SUM(balance) FROM accounts GROUP BY owner ORDER BY owner"); err != nil {
		t.Fatal(err)
	}
	var sawExec bool
	for _, snap := range staged.Snapshot() {
		if snap.Name == "fscan" || snap.Name == "aggr" || snap.Name == "sort" {
			if snap.Serviced == 0 {
				t.Fatalf("exec stage %s serviced no tasks", snap.Name)
			}
			if snap.Workers != 2 {
				t.Fatalf("exec stage %s workers = %d, want 2", snap.Name, snap.Workers)
			}
			sawExec = true
		}
	}
	if !sawExec {
		t.Fatal("no exec-stage pool monitors in Snapshot")
	}
}
