package client_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"stagedb"
	"stagedb/client"
	"stagedb/internal/server"
	"stagedb/internal/value"
)

func startServer(t *testing.T) *server.Server {
	t.Helper()
	srv, _ := startServerDB(t)
	return srv
}

// startServerDB serves a fresh in-memory database on loopback and also
// returns the database, for tests that compare the wire with the embedded API.
func startServerDB(t *testing.T) (*server.Server, *stagedb.DB) {
	t.Helper()
	db, err := stagedb.Open(stagedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(context.Background(), db, server.Options{})
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveDone
		db.Close()
	})
	return srv, db
}

func TestDialRefused(t *testing.T) {
	// A port nothing listens on: Dial must fail, not hang.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := client.Dial(ctx, "127.0.0.1:1", client.Options{}); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

func TestArgsRoundTrip(t *testing.T) {
	srv := startServer(t)
	c, err := client.Dial(context.Background(), srv.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.ExecContext(ctx, "CREATE TABLE t (id INT PRIMARY KEY, score FLOAT, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecContext(ctx, "INSERT INTO t VALUES (?, ?, ?)", 7, 2.5, "it's a 'quoted' name"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.QueryContext(ctx, "SELECT id, score, name FROM t WHERE id = ?", 7)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no row: %v", rows.Err())
	}
	r := rows.Row()
	if r[0].Int() != 7 || r[1].Float() != 2.5 || r[2].Text() != "it's a 'quoted' name" {
		t.Fatalf("row = %v", r)
	}
	if rows.Next() {
		t.Fatal("extra row")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestArgConversionAgrees binds every Go type the API accepts through an
// embedded Conn and through client.Conn for the same SQL: both must return
// the identical value, and an unsupported type must fail on both.
func TestArgConversionAgrees(t *testing.T) {
	srv, db := startServerDB(t)
	c, err := client.Dial(context.Background(), srv.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.ExecContext(ctx, "CREATE TABLE one (id INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecContext(ctx, "INSERT INTO one VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	embedded := db.Conn()
	const q = "SELECT ? FROM one"
	args := []any{nil, value.NewText("v"), int(-7), int32(-32), int64(1 << 40),
		uint32(4_000_000_000), float32(1.5), float64(2.25), "text", true}
	for _, a := range args {
		embRes, err := embedded.ExecContext(ctx, q, a)
		if err != nil {
			t.Fatalf("embedded %T: %v", a, err)
		}
		wireRes, err := c.ExecContext(ctx, q, a)
		if err != nil {
			t.Fatalf("wire %T: %v", a, err)
		}
		if len(embRes.Rows) != 1 || len(wireRes.Rows) != 1 {
			t.Fatalf("%T: embedded %v, wire %v", a, embRes.Rows, wireRes.Rows)
		}
		e, w := embRes.Rows[0][0], wireRes.Rows[0][0]
		if e.Type() != w.Type() || e.String() != w.String() {
			t.Fatalf("%T: embedded %v (%v), wire %v (%v)", a, e, e.Type(), w, w.Type())
		}
	}
	for _, a := range []any{uint64(1), struct{}{}} {
		if _, err := embedded.ExecContext(ctx, q, a); err == nil || !strings.Contains(err.Error(), "argument 1") {
			t.Fatalf("embedded %T: err = %v, want an argument 1 error", a, err)
		}
		if _, err := c.ExecContext(ctx, q, a); err == nil || !strings.Contains(err.Error(), "argument 1") {
			t.Fatalf("wire %T: err = %v, want an argument 1 error", a, err)
		}
	}
}

func TestExpiredDeadlineFailsBeforeWire(t *testing.T) {
	srv := startServer(t)
	c, err := client.Dial(context.Background(), srv.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = c.ExecContext(ctx, "SELECT 1")
	if !errors.Is(err, stagedb.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// The conn was not poisoned: a live context still works.
	if _, err := c.ExecContext(context.Background(), "CREATE TABLE ok (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
}

func TestConnAfterClose(t *testing.T) {
	srv := startServer(t)
	c, err := client.Dial(context.Background(), srv.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := c.ExecContext(context.Background(), "SELECT 1"); err == nil {
		t.Fatal("exec on closed conn succeeded")
	}
}

func TestRowsCloseAfterConnClose(t *testing.T) {
	srv := startServer(t)
	c, err := client.Dial(context.Background(), srv.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.ExecContext(ctx, "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecContext(ctx, "INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.QueryContext(ctx, "SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Closing an orphaned cursor after its conn is gone must not panic.
	if err := rows.Close(); err == nil {
		t.Fatal("close of orphaned rows reported success")
	}
}

func TestServerErrorsKeepConnUsable(t *testing.T) {
	srv := startServer(t)
	c, err := client.Dial(context.Background(), srv.Addr(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	_, err = c.ExecContext(ctx, "SELEKT nonsense")
	if err == nil || !strings.Contains(err.Error(), "SELEKT") {
		t.Fatalf("syntax error not surfaced usefully: %v", err)
	}
	if _, err := c.ExecContext(ctx, "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatalf("conn unusable after server error: %v", err)
	}
	// Missing table: a generic server error, again non-fatal to the conn.
	if _, err := c.ExecContext(ctx, "SELECT * FROM missing"); err == nil {
		t.Fatal("query on missing table succeeded")
	}
	if _, err := c.ExecContext(ctx, "INSERT INTO t VALUES (1)"); err != nil {
		t.Fatalf("conn unusable after second error: %v", err)
	}
}
