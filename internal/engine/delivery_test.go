package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"stagedb/internal/sql"
	"stagedb/internal/value"
)

// selectDriver runs statements on one session either directly (the default
// Volcano driver) or as requests through a Staged front end (the pooled
// staged driver). exec is the materialized form (Session.RunStmt), stream
// the cursor form (Session.StreamStmt).
type selectDriver struct {
	name   string
	exec   func(ctx context.Context, sess *Session, q string) (*Result, error)
	stream func(ctx context.Context, sess *Session, q string) (*Cursor, error)
}

func selectDrivers(t *testing.T, db *DB) []selectDriver {
	staged := NewStaged(db, StagedConfig{})
	t.Cleanup(staged.Close)
	submit := func(ctx context.Context, sess *Session, q string, stream bool) (*Request, error) {
		req := &Request{Session: sess, SQL: q, Ctx: ctx, Stream: stream, Done: make(chan struct{})}
		if err := staged.Submit(req); err != nil {
			return nil, err
		}
		_, err := req.Wait()
		return req, err
	}
	return []selectDriver{
		{
			name: "volcano",
			exec: func(ctx context.Context, sess *Session, q string) (*Result, error) {
				stmt, err := sql.Parse(q)
				if err != nil {
					return nil, err
				}
				return sess.RunStmt(ctx, stmt, nil)
			},
			stream: func(ctx context.Context, sess *Session, q string) (*Cursor, error) {
				stmt, err := sql.Parse(q)
				if err != nil {
					return nil, err
				}
				return sess.StreamStmt(ctx, stmt.(*sql.Select), nil)
			},
		},
		{
			name: "staged",
			exec: func(ctx context.Context, sess *Session, q string) (*Result, error) {
				req, err := submit(ctx, sess, q, false)
				if err != nil {
					return nil, err
				}
				return req.Result, nil
			},
			stream: func(ctx context.Context, sess *Session, q string) (*Cursor, error) {
				req, err := submit(ctx, sess, q, true)
				if err != nil {
					return nil, err
				}
				return req.Cursor, nil
			},
		},
	}
}

// drainRows reads a cursor to its end and closes it, copying each row: a
// row dies with the page it arrived on.
func drainRows(t *testing.T, cur *Cursor) []value.Row {
	t.Helper()
	var rows []value.Row
	for {
		pg, err := cur.NextPage()
		if err != nil {
			t.Fatal(err)
		}
		if pg == nil {
			break
		}
		for i := 0; i < pg.Len(); i++ {
			rows = append(rows, pg.Row(i).Clone())
		}
		pg.Release()
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// assertNothingHeld checks that a finished SELECT left no exchange page
// checked out and no spill file on disk. A shared scan's producer drops its
// last page reference as it exits, just after the query returns, so the
// page balance is given a moment to settle.
func assertNothingHeld(t *testing.T, db *DB) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for db.PagePool().Stats().Outstanding != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pages still checked out: %+v", db.PagePool().Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := db.SpillStats(); st.FilesCreated != st.FilesRemoved {
		t.Fatalf("spill files live: created %d, removed %d", st.FilesCreated, st.FilesRemoved)
	}
}

// createDoomed creates the table doomed, which a subtest drops to prove its
// query released the table's ddl: lock; a cleanup drops it if the subtest
// failed first, so the next subtest can create it again.
func createDoomed(t *testing.T, db *DB, sess *Session) {
	t.Helper()
	mustExec(t, sess, "CREATE TABLE doomed (id INT PRIMARY KEY)")
	t.Cleanup(func() {
		if _, err := db.Catalog().Get("doomed"); err == nil {
			mustExec(t, db.NewSession(), "DROP TABLE doomed")
		}
	})
}

// spillCancelCtx cancels itself the first time its error is read after the
// database has created a spill file since the context was made. The
// Volcano and the staged cursor both read it before every page, and a sort
// writes its runs before its first page, so the cancel lands between pages
// with the sort's runs written and the output still ahead, on any number of
// Ps.
type spillCancelCtx struct {
	context.Context
	cancel context.CancelFunc
	db     *DB
	before int64
}

func cancelOnSpill(t *testing.T, parent context.Context, db *DB) *spillCancelCtx {
	ctx, cancel := context.WithCancel(parent)
	t.Cleanup(cancel)
	return &spillCancelCtx{ctx, cancel, db, db.SpillStats().FilesCreated}
}

func (c *spillCancelCtx) Err() error {
	if c.db.SpillStats().FilesCreated != c.before {
		c.cancel()
	}
	return c.Context.Err()
}

// TestSelectDeliveryPath pins the one SELECT delivery path on both drivers:
// the materialized form is the streamed form drained, it leaves an explicit
// transaction open, and a SELECT that ends in an error — at run time or by
// cancellation — gives back its pages, spill files and ddl: locks.
func TestSelectDeliveryPath(t *testing.T) {
	// A tiny budget makes the ORDER BYs below spill, so a failed or
	// cancelled query has run files to clean up.
	db := NewDB(Config{WorkMem: 64 << 10})
	const rows = 4000
	loadFat(t, db, db.NewSession(), rows)
	ctx := context.Background()

	for _, d := range selectDrivers(t, db) {
		t.Run(d.name, func(t *testing.T) {
			sess := db.NewSession()

			t.Run("materialized equals streamed", func(t *testing.T) {
				for _, q := range []string{
					"SELECT id, grp FROM fat ORDER BY id",
					"SELECT id FROM fat WHERE grp = 2 ORDER BY id DESC LIMIT 7",
					"SELECT grp, COUNT(*) FROM fat GROUP BY grp ORDER BY grp",
					"SELECT a.id, b.grp FROM fat a JOIN fat b ON a.id = b.id WHERE a.id < 50 ORDER BY a.id",
					"SELECT id FROM fat WHERE id = 17",
					"SELECT id FROM fat WHERE id < 0",
				} {
					res, err := d.exec(ctx, sess, q)
					if err != nil {
						t.Fatalf("%q: %v", q, err)
					}
					cur, err := d.stream(ctx, sess, q)
					if err != nil {
						t.Fatalf("%q: %v", q, err)
					}
					if got, want := res.Columns, cur.Columns(); len(got) != len(want) {
						t.Fatalf("%q: columns %v, streamed %v", q, got, want)
					}
					streamed := drainRows(t, cur)
					if len(res.Rows) != len(streamed) {
						t.Fatalf("%q: %d rows materialized, %d streamed", q, len(res.Rows), len(streamed))
					}
					for i := range streamed {
						if res.Rows[i].String() != streamed[i].String() {
							t.Fatalf("%q row %d: materialized %s, streamed %s", q, i, res.Rows[i], streamed[i])
						}
					}
				}
				assertNothingHeld(t, db)
			})

			t.Run("select leaves the transaction open", func(t *testing.T) {
				for _, q := range []string{"BEGIN", "INSERT INTO fat VALUES (-1, 0, 'txn')"} {
					if _, err := d.exec(ctx, sess, q); err != nil {
						t.Fatalf("%q: %v", q, err)
					}
				}
				res, err := d.exec(ctx, sess, "SELECT COUNT(*) FROM fat")
				if err != nil {
					t.Fatal(err)
				}
				if n := res.Rows[0][0].Int(); n != rows+1 {
					t.Fatalf("count inside the transaction = %d, want %d", n, rows+1)
				}
				if !sess.InTxn() {
					t.Fatal("SELECT closed the explicit transaction")
				}
				if _, err := d.exec(ctx, sess, "ROLLBACK"); err != nil {
					t.Fatal(err)
				}
				res, err = d.exec(ctx, sess, "SELECT COUNT(*) FROM fat")
				if err != nil {
					t.Fatal(err)
				}
				if n := res.Rows[0][0].Int(); n != rows {
					t.Fatalf("count after ROLLBACK = %d, want %d", n, rows)
				}
			})

			t.Run("failed select releases everything", func(t *testing.T) {
				createDoomed(t, db, sess)
				mustExec(t, sess, "INSERT INTO doomed VALUES (1)")
				before := db.SpillStats().FilesCreated
				// The division fails on the last row loaded, by which time the
				// sort has written runs.
				_, err := d.exec(ctx, sess, "SELECT f.id, f.pad, 100 / (f.id - 3999) FROM fat f, doomed d ORDER BY f.grp, f.id")
				if err == nil {
					t.Fatal("division by zero did not fail the SELECT")
				}
				if db.SpillStats().FilesCreated == before {
					t.Fatal("the failing query never spilled; the test lost its point")
				}
				assertNothingHeld(t, db)
				if sess.InTxn() {
					t.Fatal("failed auto-commit SELECT left a transaction open")
				}
				// The query's shared ddl: lock on doomed must be gone with its
				// auto transaction, or the DROP would wait on it.
				if _, err := d.exec(ctx, sess, "DROP TABLE doomed"); err != nil {
					t.Fatalf("DROP TABLE after failed SELECT: %v", err)
				}
			})

			t.Run("cancelled select releases everything", func(t *testing.T) {
				createDoomed(t, db, sess)
				mustExec(t, sess, "INSERT INTO doomed VALUES (1)")
				cctx := cancelOnSpill(t, ctx, db)
				_, err := d.exec(cctx, sess, "SELECT f.id, f.pad FROM fat f, doomed d ORDER BY f.grp, f.id")
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled SELECT returned %v, want context.Canceled", err)
				}
				assertNothingHeld(t, db)
				if _, err := d.exec(ctx, sess, "DROP TABLE doomed"); err != nil {
					t.Fatalf("DROP TABLE after cancelled SELECT: %v", err)
				}
			})
		})
	}
}
