// Golden file for the ctxflow analyzer, in a package whose import path ends
// in internal/engine (in scope): no fresh Background/TODO contexts.
package engine

import "context"

// DB carries a ctx-first query method like the client API.
type DB struct{}

// QueryContext is the only variant: every statement entry point takes a ctx.
func (db *DB) QueryContext(ctx context.Context, q string) error { return nil }

// freshBackground mints a context inside the engine.
func freshBackground() context.Context {
	return context.Background() // want `context.Background breaks the cancellation chain`
}

// freshTODO is just as much of a break.
func freshTODO() context.Context {
	return context.TODO() // want `context.TODO breaks the cancellation chain`
}

// okThreaded forwards the caller's ctx.
func okThreaded(ctx context.Context, db *DB) error {
	return db.QueryContext(ctx, "select 1")
}
