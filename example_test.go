package stagedb_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"

	"stagedb"
	"stagedb/client"
	"stagedb/internal/server"
)

// ExampleDB_QueryContext streams a SELECT through a Rows cursor: pages
// arrive from the execute stage as the client iterates, so the result never
// materializes in memory, and Close abandons whatever was not read.
func ExampleDB_QueryContext() {
	ctx := context.Background()
	db, err := stagedb.Open(stagedb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(ctx, `
		CREATE TABLE t (id INT PRIMARY KEY, name TEXT);
		INSERT INTO t VALUES (1, 'ann'), (2, 'bob'), (3, 'cyd');
	`); err != nil {
		log.Fatal(err)
	}

	rows, err := db.QueryContext(ctx, "SELECT id, name FROM t WHERE id >= ?", 2)
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	for rows.Next() {
		var id int64
		var name string
		if err := rows.Scan(&id, &name); err != nil {
			log.Fatal(err)
		}
		fmt.Println(id, name)
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// 2 bob
	// 3 cyd
}

// ExampleDB_Prepare parses and plans a statement once; every execution
// binds its arguments and enters the staged pipeline directly at the
// execute stage, so the parse and optimize stages are never revisited.
func ExampleDB_Prepare() {
	ctx := context.Background()
	db, err := stagedb.Open(stagedb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(ctx, `
		CREATE TABLE acct (id INT PRIMARY KEY, bal INT);
		INSERT INTO acct VALUES (1, 10), (2, 20), (3, 30);
	`); err != nil {
		log.Fatal(err)
	}

	stmt, err := db.Prepare(ctx, "SELECT bal FROM acct WHERE id = ?")
	if err != nil {
		log.Fatal(err)
	}
	defer stmt.Close()
	for id := 1; id <= 3; id++ {
		res, err := stmt.ExecContext(ctx, id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Rows[0][0])
	}
	st := db.PlanCacheStats()
	fmt.Printf("cache hits=%d misses=%d\n", st.Hits, st.Misses)
	// Output:
	// 10
	// 20
	// 30
	// cache hits=3 misses=1
}

// ExampleConn_QueryContext_cancellation shows context cancellation: the
// canceled request fails between pipeline stages instead of running, and a
// cancel mid-stream surfaces through Rows.Err while every buffered page
// drains back to the pool.
func ExampleConn_QueryContext_cancellation() {
	ctx := context.Background()
	db, err := stagedb.Open(stagedb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(ctx, `
		CREATE TABLE t (id INT);
		INSERT INTO t VALUES (1), (2), (3);
	`); err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithCancel(ctx)
	cancel() // cancel before the packet enters the pipeline
	conn := db.Conn()
	if _, err := conn.QueryContext(ctx, "SELECT id FROM t"); err != nil {
		// The taxonomy sentinel matches, and the raw cause stays reachable.
		fmt.Println("canceled:", errors.Is(err, stagedb.ErrCanceled),
			"cause reachable:", errors.Is(err, context.Canceled))
	}
	fmt.Println("outstanding pages:", db.PagePoolStats().Outstanding)
	// Output:
	// canceled: true cause reachable: true
	// outstanding pages: 0
}

// ExampleOpen_durable opens a durable database: pages live in a checksummed
// data file under DataDir and every commit is written ahead to a
// group-committed log, so reopening the directory recovers all committed
// work — including after a crash (redo from the log) — while uncommitted
// transactions are rolled back.
func ExampleOpen_durable() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "stagedb-durable")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := stagedb.Open(stagedb.Options{DataDir: dir})
	if err != nil {
		log.Fatal(err)
	}
	if err := db.ExecScript(ctx, `
		CREATE TABLE events (id INT PRIMARY KEY, kind TEXT);
		INSERT INTO events VALUES (1, 'signup'), (2, 'login');
	`); err != nil {
		log.Fatal(err)
	}
	if err := db.Close(); err != nil { // final checkpoint + release files
		log.Fatal(err)
	}

	// Reopen: recovery replays the log and rebuilds tables and indexes.
	db, err = stagedb.Open(stagedb.Options{DataDir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	res, err := db.ExecContext(ctx, "SELECT kind FROM events ORDER BY id")
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row[0].Text())
	}
	// Output:
	// signup
	// login
}

// ExampleOpen_snapshot shows snapshot isolation on the multi-version store:
// BEGIN pins a reader's snapshot, a writer commits mid-scan without blocking
// (and without being blocked — MVCC readers take no locks), and the rest of
// the scan keeps returning the snapshot's rows. Had the two transactions
// written the same row, the second committer would fail with
// ErrSerializationFailure, which Retryable reports as safe to rerun.
func ExampleOpen_snapshot() {
	ctx := context.Background()
	db, err := stagedb.Open(stagedb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(ctx, `
		CREATE TABLE acct (id INT PRIMARY KEY, bal INT);
		INSERT INTO acct VALUES (1, 10), (2, 20), (3, 30);
	`); err != nil {
		log.Fatal(err)
	}

	// The reader's BEGIN pins its snapshot: every read in the transaction
	// sees the database as of this instant.
	reader := db.Conn()
	if _, err := reader.ExecContext(ctx, "BEGIN"); err != nil {
		log.Fatal(err)
	}
	rows, err := reader.QueryContext(ctx, "SELECT id, bal FROM acct ORDER BY id")
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	var id, bal int64
	rows.Next() // the scan is mid-flight...
	if err := rows.Scan(&id, &bal); err != nil {
		log.Fatal(err)
	}
	fmt.Println(id, bal)

	// ...when a writer rewrites every row. The scan does not block it: the
	// update commits immediately, leaving new versions beside the ones the
	// reader's snapshot still sees.
	writer := db.Conn()
	if _, err := writer.ExecContext(ctx, "UPDATE acct SET bal = bal + 100"); err != nil {
		log.Fatal(err)
	}

	// The rest of the scan reads the snapshot's versions, not the update.
	for rows.Next() {
		if err := rows.Scan(&id, &bal); err != nil {
			log.Fatal(err)
		}
		fmt.Println(id, bal)
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	if _, err := reader.ExecContext(ctx, "COMMIT"); err != nil {
		log.Fatal(err)
	}

	// A fresh snapshot sees the committed update.
	res, err := reader.ExecContext(ctx, "SELECT bal FROM acct WHERE id = 1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after commit:", res.Rows[0][0].Int())
	// Output:
	// 1 10
	// 2 20
	// 3 30
	// after commit: 110
}

// ExampleOpen_server serves a database over TCP — the itinerary the
// stagedbd daemon runs — and talks to it through the client package. The
// server is an admission-control stage in front of the engine's pipeline:
// per-tenant connection and in-flight quotas, queue-depth load shedding,
// per-query deadlines, and graceful drain all happen before parse ever
// sees a statement. Rejections carry the Retryable taxonomy so clients
// know to back off and retry rather than fail.
func ExampleOpen_server() {
	db, err := stagedb.Open(stagedb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Addr ":0" picks a free port; see server.Options for the admission
	// knobs (quotas, shed depth, query deadline, write timeout).
	srv, err := server.New(context.Background(), db, server.Options{})
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve()

	c, err := client.Dial(context.Background(), srv.Addr(), client.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.ExecContext(ctx, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT)"); err != nil {
		log.Fatal(err)
	}
	if _, err := c.ExecContext(ctx, "INSERT INTO t VALUES (?, ?)", 1, "ann"); err != nil {
		log.Fatal(err)
	}
	rows, err := c.QueryContext(ctx, "SELECT name FROM t WHERE id = ?", 1)
	if err != nil {
		log.Fatal(err)
	}
	for rows.Next() {
		fmt.Println(rows.Row()[0].Text())
	}
	if err := rows.Close(); err != nil {
		log.Fatal(err)
	}

	// Drain: stop accepting, reject new queries as ErrDraining, wait for
	// in-flight work, then close every session.
	if err := srv.Shutdown(context.Background()); err != nil {
		log.Fatal(err)
	}
	// Output:
	// ann
}
