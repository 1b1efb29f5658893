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

// TestCursorsCheckContextBeforeEveryPage pins NextPage's cancellation
// contract on both drivers: once the context is cancelled, the next call
// fails with its error although produced pages are still waiting.
func TestCursorsCheckContextBeforeEveryPage(t *testing.T) {
	db := shareDB(t, 100)
	pool := newTestPool(t)
	q := "SELECT id FROM items"
	open := map[string]func(ctx context.Context) (Cursor, error){
		"volcano": func(ctx context.Context) (Cursor, error) {
			op, err := BuildWith(db.plan(t, q, plan.Options{}), db, BuildConfig{PageRows: 8})
			if err != nil {
				return nil, err
			}
			return NewCursor(ctx, op)
		},
		"staged": func(ctx context.Context) (Cursor, error) {
			return RunStagedCursor(db.plan(t, q, plan.Options{}), db, pool, StagedOptions{Ctx: ctx, PageRows: 8, BufferPages: 4})
		},
	}
	for name, open := range open {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c, err := open(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			pg, err := c.NextPage()
			if pg == nil {
				t.Fatalf("first page: nil, err = %v", err)
			}
			pg.Release()
			cancel()
			if pg, err = c.NextPage(); pg != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("NextPage after cancel = page %v, err %v; want nil, context.Canceled", pg != nil, err)
			}
		})
	}
}
