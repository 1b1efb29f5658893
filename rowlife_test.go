package stagedb

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"stagedb/internal/value"
)

// The client API's row lifetimes (see Rows): a materialised Result owns its
// rows, while Rows.Row and Rows.NextBatch hand out rows that live in pooled
// exchange pages and are valid only until the next call. Every database here
// runs 1-row pages through 1-page buffers on 1-worker stages, so a page
// recycles the moment it is consumed.

// lifetimeDB opens a database in the given mode with t(id, w, tag), w = 3id+1,
// tag = "t<id>".
func lifetimeDB(t *testing.T, mode Mode, n int) *DB {
	t.Helper()
	db := mustOpen(t, Options{Mode: mode, PageRows: 1, BufferPages: 1, ExecWorkers: 1, ExecQueueDepth: 1})
	t.Cleanup(func() { db.Close() })
	var load strings.Builder
	load.WriteString("CREATE TABLE t (id INT PRIMARY KEY, w INT, tag TEXT); INSERT INTO t VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			load.WriteByte(',')
		}
		fmt.Fprintf(&load, "(%d, %d, 't%d')", i, 3*i+1, i)
	}
	if err := db.ExecScript(t.Context(), load.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

// checkLifetimeRow reports a row of SELECT id, w, tag that is not a function
// of its id.
func checkLifetimeRow(t *testing.T, what string, r Row) int64 {
	t.Helper()
	id := r[0].Int()
	if r[0].Type() != value.Int || r[1].Int() != 3*id+1 || r[2].Text() != fmt.Sprintf("t%d", id) {
		t.Fatalf("%s: inconsistent row %v", what, r)
	}
	return id
}

func onEachMode(t *testing.T, fn func(t *testing.T, mode Mode)) {
	t.Run("staged", func(t *testing.T) { fn(t, Staged) })
	t.Run("threaded", func(t *testing.T) { fn(t, Threaded) })
}

// TestRetainMaterializedResult: Exec, Query and a prepared statement's Query
// return results that stay intact after a hundred more queries have cycled
// the pages their rows arrived on.
func TestRetainMaterializedResult(t *testing.T) {
	onEachMode(t, func(t *testing.T, mode Mode) {
		const n = 200
		db := lifetimeDB(t, mode, n)
		const q = "SELECT id, w, tag FROM t"
		viaExec, err := db.ExecContext(t.Context(), q)
		if err != nil {
			t.Fatal(err)
		}
		viaQuery, err := db.ExecContext(t.Context(), q+" WHERE id >= ?", 0)
		if err != nil {
			t.Fatal(err)
		}
		stmt, err := db.Conn().Prepare(t.Context(), q+" WHERE id < ?")
		if err != nil {
			t.Fatal(err)
		}
		viaStmt, err := stmt.ExecContext(t.Context(), n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if _, err := db.ExecContext(t.Context(), fmt.Sprintf("SELECT id + %d, w, tag FROM t WHERE id > ?", i), i); err != nil {
				t.Fatal(err)
			}
		}
		for name, res := range map[string]*Result{"Exec": viaExec, "Query": viaQuery, "Stmt.Query": viaStmt} {
			if len(res.Rows) != n {
				t.Fatalf("%s: %d rows, want %d", name, len(res.Rows), n)
			}
			seen := make(map[int64]bool)
			for _, r := range res.Rows {
				id := checkLifetimeRow(t, name, r)
				if seen[id] {
					t.Fatalf("%s: id %d twice", name, id)
				}
				seen[id] = true
			}
		}
	})
}

// TestRowsRowAndNextBatchLifetime: a row read through Rows.Row is intact
// until the next Next, a NextBatch batch until the next NextBatch, and a
// Clone outlives both.
func TestRowsRowAndNextBatchLifetime(t *testing.T) {
	onEachMode(t, func(t *testing.T, mode Mode) {
		const n = 150
		db := lifetimeDB(t, mode, n)
		ctx := context.Background()
		rows, err := db.QueryContext(ctx, "SELECT id, w, tag FROM t")
		if err != nil {
			t.Fatal(err)
		}
		var kept []Row
		for rows.Next() {
			r := rows.Row()
			checkLifetimeRow(t, "Row", r)
			if len(kept) < 5 {
				kept = append(kept, r.Clone())
			}
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}

		rows, err = db.QueryContext(ctx, "SELECT id, w, tag FROM t WHERE id % 2 = 0")
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for {
			batch, err := rows.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if batch == nil {
				break
			}
			for _, r := range batch {
				if id := checkLifetimeRow(t, "NextBatch", r); id%2 != 0 {
					t.Fatalf("NextBatch returned filtered-out row %v", r)
				}
				if len(kept) < 10 {
					kept = append(kept, r.Clone())
				}
			}
			got += len(batch)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if got != n/2 {
			t.Fatalf("NextBatch delivered %d rows, want %d", got, n/2)
		}
		if len(kept) != 10 {
			t.Fatalf("kept %d clones", len(kept))
		}
		for _, r := range kept {
			checkLifetimeRow(t, "clone", r)
		}
	})
}
