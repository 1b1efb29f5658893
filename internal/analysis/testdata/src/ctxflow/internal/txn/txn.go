// Golden file for the ctxflow analyzer in a package whose import path ends
// in internal/txn (in scope as of context-aware lock waits): a lock wait
// issued under a fresh Background outlives the query that wanted the lock —
// a canceled or timed-out statement leaves its waiter squatting in the FIFO
// queue, blocking every request behind it on a lock nobody will ever take.
package txn

import "context"

// LockManager mirrors the real manager's ctx-first lock wait.
type LockManager struct{}

// Lock is the cancellable wait.
func (lm *LockManager) Lock(ctx context.Context, res string) error { return nil }

// backgroundWait mints a context for a lock wait: the wait can never be
// abandoned.
func backgroundWait() context.Context {
	return context.Background() // want `context.Background breaks the cancellation chain`
}

// todoWait is the same break with different spelling.
func todoWait() context.Context {
	return context.TODO() // want `context.TODO breaks the cancellation chain`
}

// okThreaded forwards the caller's ctx into the wait.
func okThreaded(ctx context.Context, lm *LockManager) error {
	return lm.Lock(ctx, "table:t")
}

// okJustified: a teardown entry point with no caller context carries a
// justified suppression — the escape hatch stays visible and auditable.
func okJustified(lm *LockManager) error {
	//stagedbvet:ignore ctxflow teardown entry point: session close has no caller context and must not block.
	return lm.Lock(context.Background(), "table:t")
}
