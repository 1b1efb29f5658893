package exec

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"stagedb/internal/plan"
)

// TestStagedCursorCancelCostsNoGoroutine: an open staged cursor with a
// cancellable context holds no goroutine of its own (cancellation is a
// context.AfterFunc hook, not a watcher per query), and canceling still fails
// the cursor with the context's error.
func TestStagedCursorCancelCostsNoGoroutine(t *testing.T) {
	db := shareDB(t, 100)
	pool := newTestPool(t)
	q := "SELECT id FROM items"
	opts := StagedOptions{PageRows: 8, BufferPages: 1}
	// Warm the pool: a stage spawns its workers on first use.
	if _, err := RunStaged(db.plan(t, q, plan.Options{}), db, pool, opts); err != nil {
		t.Fatal(err)
	}

	const n = 50
	before := runtime.NumGoroutine()
	curs := make([]Cursor, n)
	cancels := make([]context.CancelFunc, n)
	for i := range curs {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cancels[i] = cancel
		opts.Ctx = ctx
		c, err := RunStagedCursor(db.plan(t, q, plan.Options{}), db, pool, opts)
		if err != nil {
			t.Fatal(err)
		}
		curs[i] = c
	}
	if grown := runtime.NumGoroutine() - before; grown >= n {
		t.Fatalf("%d open cursors added %d goroutines", n, grown)
	}

	for i, c := range curs {
		if i%2 == 0 {
			cancels[i]()
			<-c.(*stagedCursor).p.done // the hook has failed the pipeline
		}
		var err error
		for {
			var pg *Page
			if pg, err = c.NextPage(); pg == nil {
				break
			}
			pg.Release()
		}
		if canceled := errors.Is(err, context.Canceled); canceled != (i%2 == 0) {
			t.Fatalf("cursor %d: err = %v, canceled = %v", i, err, i%2 == 0)
		}
		c.Close()
	}
}
