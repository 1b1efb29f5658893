// Golden file for the ctxflow analyzer in a package whose import path ends
// in internal/server (in scope as of the network front end): a session that
// mints its own context detaches from the server's hard-stop and deadline
// plumbing, so drain and per-query timeouts silently stop applying to it.
package server

import "context"

// Conn mirrors the client-facing ctx-first Exec.
type Conn struct{}

// ExecContext is the only variant: it takes the caller's ctx.
func (c *Conn) ExecContext(ctx context.Context, q string) error { return nil }

// session carries a per-connection context like the real server.
type session struct {
	ctx context.Context
}

// detachedQuery mints a fresh context instead of deriving from the session's.
func detachedQuery() context.Context {
	return context.Background() // want `context.Background breaks the cancellation chain`
}

// lazyTODO is the same break with different spelling.
func lazyTODO() context.Context {
	return context.TODO() // want `context.TODO breaks the cancellation chain`
}

// okDerived threads the session context into the query.
func okDerived(ctx context.Context, c *Conn) error {
	qctx, cancel := context.WithCancel(ctx)
	defer cancel()
	return c.ExecContext(qctx, "SELECT 1")
}
