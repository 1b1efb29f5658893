package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"stagedb"
	"stagedb/client"
	"stagedb/internal/wire"
)

// startServer opens an in-memory DB, serves it on an ephemeral port, and
// tears everything down at test end, asserting leak-freedom.
func startServer(t *testing.T, dbOpts stagedb.Options, srvOpts Options) (*Server, *stagedb.DB) {
	t.Helper()
	db, err := stagedb.Open(dbOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(context.Background(), db, srvOpts)
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	t.Cleanup(func() {
		shctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(shctx)
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
		assertNoLeaks(t, db)
		db.Close()
	})
	return srv, db
}

// assertNoLeaks checks the engine-side leak invariants the torture and
// robustness tests all share: every pooled page returned, every spill file
// removed.
func assertNoLeaks(t *testing.T, db *stagedb.DB) {
	t.Helper()
	// Pages drain asynchronously after a canceled pipeline tears down.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if db.PagePoolStats().Outstanding == 0 && db.SpillStats().FilesLive() == 0 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := db.PagePoolStats().Outstanding; n != 0 {
		t.Errorf("page pool outstanding = %d, want 0", n)
	}
	if n := db.SpillStats().FilesLive(); n != 0 {
		t.Errorf("spill files live = %d, want 0", n)
	}
}

func mustExec(t *testing.T, c *client.Conn, sql string, args ...any) *stagedb.Result {
	t.Helper()
	res, err := c.ExecContext(context.Background(), sql, args...)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

// fillPadded bulk-loads table with n (id, pad) rows in multi-row batches —
// the padding makes result streams large enough that kernel socket buffers
// cannot absorb them, which the backpressure tests depend on.
func fillPadded(t *testing.T, c *client.Conn, table string, n, padBytes int) {
	t.Helper()
	pad := strings.Repeat("x", padBytes)
	const batch = 200
	for lo := 0; lo < n; lo += batch {
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
		for i := lo; i < lo+batch && i < n; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, '%s')", i, pad)
		}
		mustExec(t, c, sb.String())
	}
}

func dial(t *testing.T, srv *Server, tenant string) *client.Conn {
	t.Helper()
	c, err := client.Dial(context.Background(), srv.Addr(), client.Options{Tenant: tenant})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRoundTrip(t *testing.T) {
	srv, _ := startServer(t, stagedb.Options{}, Options{})
	c := dial(t, srv, "")

	mustExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
	for i := 0; i < 200; i++ {
		mustExec(t, c, "INSERT INTO t VALUES (?, ?)", i, fmt.Sprintf("name-%d", i))
	}

	// Streaming query: spans multiple page frames (64 rows per page).
	rows, err := c.QueryContext(context.Background(), "SELECT id, name FROM t WHERE id >= ? ORDER BY id", 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Columns(); len(got) != 2 || got[0] != "id" || got[1] != "name" {
		t.Fatalf("columns = %v", got)
	}
	want := int64(50)
	n := 0
	for rows.Next() {
		r := rows.Row()
		if r[0].Int() != want {
			t.Fatalf("row %d: id = %d, want %d", n, r[0].Int(), want)
		}
		want++
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 150 {
		t.Fatalf("streamed %d rows, want 150", n)
	}

	// Exec-path SELECT (materialized server-side, re-paged on the wire).
	res := mustExec(t, c, "SELECT COUNT(*) FROM t")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 200 {
		t.Fatalf("count = %v", res.Rows)
	}

	// DML affected count.
	res = mustExec(t, c, "DELETE FROM t WHERE id < 100")
	if res.Affected != 100 {
		t.Fatalf("affected = %d, want 100", res.Affected)
	}

	// Query errors stay on the session: the next statement works.
	if _, err := c.ExecContext(context.Background(), "SELEKT broken"); err == nil {
		t.Fatal("syntax error not surfaced")
	}
	res = mustExec(t, c, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("post-error count = %v", res.Rows)
	}
}

func TestTransactionsSpanQueriesAndRollBackOnDisconnect(t *testing.T) {
	srv, _ := startServer(t, stagedb.Options{}, Options{})
	c := dial(t, srv, "")
	mustExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY)")

	// A session holds one engine session: BEGIN/COMMIT span queries.
	mustExec(t, c, "BEGIN")
	mustExec(t, c, "INSERT INTO t VALUES (1)")
	mustExec(t, c, "COMMIT")

	// An abandoned transaction rolls back when the session dies, releasing
	// its locks for other sessions.
	c2 := dial(t, srv, "")
	mustExec(t, c2, "BEGIN")
	mustExec(t, c2, "INSERT INTO t VALUES (2)")
	c2.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := c.ExecContext(context.Background(), "SELECT COUNT(*) FROM t")
		if err == nil && res.Rows[0][0].Int() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned txn not rolled back: res=%v err=%v", res, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestConnQuotaPerTenant(t *testing.T) {
	srv, _ := startServer(t, stagedb.Options{}, Options{MaxConnsPerTenant: 2})

	a1 := dial(t, srv, "acme")
	_ = dial(t, srv, "acme")
	_, err := client.Dial(context.Background(), srv.Addr(), client.Options{Tenant: "acme"})
	if !errors.Is(err, stagedb.ErrAdmissionDenied) {
		t.Fatalf("third conn: err = %v, want ErrAdmissionDenied", err)
	}
	if !stagedb.Retryable(err) {
		t.Fatal("admission rejection must be retryable")
	}
	// Another tenant is unaffected.
	_ = dial(t, srv, "other")
	// Releasing a slot lets the tenant back in.
	a1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := client.Dial(context.Background(), srv.Addr(), client.Options{Tenant: "acme"})
		if err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot not released: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.AdmissionStats()["conns_rejected"]; got < 1 {
		t.Fatalf("conns_rejected = %d, want >= 1", got)
	}
}

func TestInflightQuotaPerTenant(t *testing.T) {
	srv, _ := startServer(t, stagedb.Options{}, Options{MaxInflightPerTenant: 1})
	c1 := dial(t, srv, "acme")
	c2 := dial(t, srv, "acme")
	mustExec(t, c1, "CREATE TABLE t (id INT PRIMARY KEY, pad TEXT)")
	// The result must be far larger than the kernel's socket buffers: the
	// query then stays in flight (its write parked) until the client reads
	// or closes, holding tenant acme's one slot open.
	fillPadded(t, c1, "t", 6000, 4096)

	rows, err := c1.QueryContext(context.Background(), "SELECT id, pad FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("first row: %v", rows.Err())
	}
	_, err = c2.ExecContext(context.Background(), "SELECT COUNT(*) FROM t")
	if !errors.Is(err, stagedb.ErrAdmissionDenied) {
		t.Fatalf("second in-flight: err = %v, want ErrAdmissionDenied", err)
	}
	rows.Close()
	// Slot released: the tenant can run again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c2.ExecContext(context.Background(), "SELECT id FROM t"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot not released: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.AdmissionStats()["shed_tenant_quota"]; got < 1 {
		t.Fatalf("shed_tenant_quota = %d, want >= 1", got)
	}
}

func TestDeadlinePropagatesOverWire(t *testing.T) {
	srv, _ := startServer(t, stagedb.Options{}, Options{})
	c := dial(t, srv, "")
	mustExec(t, c, "CREATE TABLE t (a INT, b INT)")
	for i := 0; i < 500; i++ {
		mustExec(t, c, "INSERT INTO t VALUES (?, ?)", i, i%7)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 1*time.Millisecond)
	defer cancel()
	_, err := c.ExecContext(ctx, "SELECT t1.a, t2.a FROM t t1, t t2 WHERE t1.b = t2.b ORDER BY t1.a")
	if !errors.Is(err, stagedb.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// The session survives the timeout.
	res := mustExec(t, c, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 500 {
		t.Fatalf("post-timeout count = %v", res.Rows)
	}
}

func TestServerQueryTimeoutCap(t *testing.T) {
	srv, db := startServer(t, stagedb.Options{}, Options{QueryTimeout: time.Millisecond})
	// The table loads through the embedded DB: only the SELECT below meets
	// the server's 1 ms cap.
	if _, err := db.ExecContext(t.Context(), "CREATE TABLE t (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := db.ExecContext(t.Context(), "INSERT INTO t VALUES (?, ?)", i, i%7); err != nil {
			t.Fatal(err)
		}
	}
	c := dial(t, srv, "")
	// No client deadline at all: the server cap still fires.
	_, err := c.ExecContext(context.Background(), "SELECT t1.a FROM t t1, t t2 WHERE t1.b = t2.b ORDER BY t1.a")
	if !errors.Is(err, stagedb.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestCancelMidStreamKeepsSession(t *testing.T) {
	srv, db := startServer(t, stagedb.Options{BufferPages: 2}, Options{})
	c := dial(t, srv, "")
	mustExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, pad TEXT)")
	fillPadded(t, c, "t", 2000, 256)

	for round := 0; round < 5; round++ {
		rows, err := c.QueryContext(context.Background(), "SELECT id, pad FROM t ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		// Read a prefix, then abandon: Close sends Cancel and drains.
		for i := 0; i < 10 && rows.Next(); i++ {
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		// Session remains usable.
		res := mustExec(t, c, "SELECT COUNT(*) FROM t")
		if res.Rows[0][0].Int() != 2000 {
			t.Fatalf("round %d: count = %v", round, res.Rows)
		}
	}
	assertNoLeaks(t, db)
}

func TestPanicIsolation(t *testing.T) {
	srv, _ := startServer(t, stagedb.Options{}, Options{})
	srv.testHookExec = func(sql string) {
		if strings.Contains(sql, "boom_marker") {
			panic("injected poison")
		}
	}
	c := dial(t, srv, "")
	mustExec(t, c, "CREATE TABLE survivors (id INT PRIMARY KEY)")

	_, err := c.ExecContext(context.Background(), "SELECT 'boom_marker'")
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic report", err)
	}
	// The poisoned query did not take the session (or the server) down.
	mustExec(t, c, "INSERT INTO survivors VALUES (1)")
	c2 := dial(t, srv, "")
	res := mustExec(t, c2, "SELECT COUNT(*) FROM survivors")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("count = %v", res.Rows)
	}
	if got := srv.AdmissionStats()["panics"]; got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
}

func TestQueueDepthShedding(t *testing.T) {
	// Streaming SELECTs only borrow the execute worker to set a cursor up,
	// so the execute queue — the shedding signal — is built by DML, which
	// runs start-to-finish on the stage worker. Workers=1 serializes the
	// execute stage; a burst of concurrent UPDATEs then leaves all but one
	// sitting in its queue, and every retry that observes depth > 1 must be
	// shed with the typed retryable rejection.
	srv, _ := startServer(t, stagedb.Options{Workers: 1},
		Options{ShedQueueDepth: 1, MaxInflight: 1000, MaxInflightPerTenant: 1000})
	c := dial(t, srv, "")
	mustExec(t, c, "CREATE TABLE t (a INT, b INT)")
	const rows, batch = 8000, 200
	for lo := 0; lo < rows; lo += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO t VALUES ")
		for i := lo; i < lo+batch; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, i%7)
		}
		mustExec(t, c, sb.String())
	}

	// Wedge loop: each client resubmits its UPDATE as soon as the last one
	// resolves. The opening burst passes admission together (depth still 0),
	// queues 7 deep behind the single worker, and from then on every resubmit
	// sees the standing queue and sheds.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var shedErr error
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc, err := client.Dial(context.Background(), srv.Addr(), client.Options{})
			if err != nil {
				return
			}
			defer cc.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cc.ExecContext(context.Background(), "UPDATE t SET a = a + 1"); errors.Is(err, stagedb.ErrAdmissionDenied) {
					mu.Lock()
					if shedErr == nil {
						shedErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for srv.AdmissionStats()["shed_queue_depth"] == 0 {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatal("no queries shed under wedged execute stage")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if shedErr == nil {
		t.Fatal("shed counter moved but no client saw ErrAdmissionDenied")
	}
	if !stagedb.Retryable(shedErr) {
		t.Fatalf("queue-depth shed must be retryable: %v", shedErr)
	}
}

func TestGracefulDrain(t *testing.T) {
	db, err := stagedb.Open(stagedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := New(context.Background(), db, Options{DrainTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	c := dial(t, srv, "")
	mustExec(t, c, "CREATE TABLE t (a INT, b INT)")
	for i := 0; i < 300; i++ {
		mustExec(t, c, "INSERT INTO t VALUES (?, ?)", i, i%7)
	}

	// Launch an in-flight query, then drain while it runs.
	started := make(chan struct{})
	finished := make(chan error, 1)
	go func() {
		cc, err := client.Dial(context.Background(), srv.Addr(), client.Options{})
		if err != nil {
			finished <- err
			return
		}
		defer cc.Close()
		close(started)
		_, err = cc.ExecContext(context.Background(),
			"SELECT t1.a FROM t t1, t t2 WHERE t1.b = t2.b ORDER BY t1.a")
		finished <- err
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // let the query enter the engine

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain was forced: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// The in-flight query finished normally under drain.
	if err := <-finished; err != nil {
		t.Fatalf("in-flight query during drain: %v", err)
	}

	// New connections are refused after drain.
	if _, err := client.Dial(context.Background(), srv.Addr(), client.Options{}); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
	assertNoLeaks(t, db)
}

func TestDrainRejectsNewQueries(t *testing.T) {
	db, err := stagedb.Open(stagedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := New(context.Background(), db, Options{DrainTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	c := dial(t, srv, "")
	mustExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY)")
	mustExec(t, c, "INSERT INTO t VALUES (1)")

	// Make the session busy so drain keeps it alive, then try to sneak a
	// query in during the drain: it must be refused as ErrDraining.
	rows, err := c.QueryContext(context.Background(), "SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	closerDone := make(chan struct{})
	go func() {
		defer close(closerDone)
		time.Sleep(100 * time.Millisecond)
		rows.Close()
	}()
	shutdownDone := make(chan struct{})
	go func() {
		srv.Shutdown(context.Background())
		close(shutdownDone)
	}()
	// Busy-wait until drain has begun, then submit on a second, pre-drain
	// session... which drain already closed as idle. So expect either a
	// draining rejection or a closed conn — both are correct refusals; what
	// must not happen is successful execution.
	time.Sleep(20 * time.Millisecond)
	c2, err := client.Dial(context.Background(), srv.Addr(), client.Options{})
	if err == nil {
		if _, err := c2.ExecContext(context.Background(), "SELECT id FROM t"); err == nil {
			t.Fatal("query executed during drain")
		}
		c2.Close()
	}
	<-shutdownDone
	<-closerDone
	<-serveDone
	assertNoLeaks(t, db)
}

func TestGoroutinesReturnAfterShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	db, err := stagedb.Open(stagedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(context.Background(), db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	var conns []*client.Conn
	for i := 0; i < 8; i++ {
		c, err := client.Dial(context.Background(), srv.Addr(), client.Options{Tenant: fmt.Sprintf("t%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	if _, err := conns[0].ExecContext(context.Background(), "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		c.Close()
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-serveDone
	db.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestSlowClientWriteTimeout wedges a raw conn that Hellos, queries, and
// then never reads: the server must abort the session once WriteTimeout
// fires, recycling every outstanding page.
func TestSlowClientWriteTimeout(t *testing.T) {
	srv, db := startServer(t, stagedb.Options{BufferPages: 2},
		Options{WriteTimeout: 300 * time.Millisecond})
	c := dial(t, srv, "")
	mustExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, pad TEXT)")
	fillPadded(t, c, "t", 6000, 4096)

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, wire.MsgHello, wire.Hello{Proto: wire.Proto}.Append(nil)); err != nil {
		t.Fatal(err)
	}
	typ, _, err := wire.ReadFrame(nc)
	if err != nil || typ != wire.MsgHelloOK {
		t.Fatalf("handshake: typ=%#x err=%v", typ, err)
	}
	q := wire.Query{Flags: wire.FlagQueryOnly, SQL: "SELECT id, pad FROM t ORDER BY id"}
	if err := wire.WriteFrame(nc, wire.MsgQuery, q.Append(nil)); err != nil {
		t.Fatal(err)
	}
	// Read nothing: the socket buffers fill, the server write parks, the
	// WriteTimeout fires, and the session is aborted server-side.
	deadline := time.Now().Add(15 * time.Second)
	for srv.AdmissionStats()["slow_client_aborts"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow client never aborted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	assertNoLeaks(t, db)
}
