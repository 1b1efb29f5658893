// Golden file for the pagerefs analyzer: every page taken with PagePool.Get
// must reach Release, a sink call, a store, or a return on every path.
package pagerefs

import "exec"

// Sink stands in for handing a page to a consumer that takes ownership.
func Sink(pg *exec.Page) {}

// leakForgotten never balances the Get at all.
func leakForgotten(pool *exec.PagePool) {
	pg := pool.Get(8) // want `page "pg" from PagePool.Get is never released, forwarded, stored, or returned`
	_ = pg.Len()
}

// leakOnEarlyReturn releases on the main path but not the error path.
func leakOnEarlyReturn(pool *exec.PagePool, bad bool) error {
	pg := pool.Get(8)
	if bad {
		return errBad // want `page "pg" from PagePool.Get is not released, forwarded, or stored on this return path`
	}
	pg.Release()
	return nil
}

var errBad = error(nil)

// okReleased balances the Get on the only path.
func okReleased(pool *exec.PagePool) int {
	pg := pool.Get(8)
	n := pg.Len()
	pg.Release()
	return n
}

// okDeferred balances with a deferred Release.
func okDeferred(pool *exec.PagePool) int {
	pg := pool.Get(8)
	defer pg.Release()
	return pg.Len()
}

// okBothBranches releases on each branch of the fork.
func okBothBranches(pool *exec.PagePool, bad bool) {
	pg := pool.Get(8)
	if bad {
		pg.Release()
		return
	}
	pg.Release()
}

// okForwarded hands the reference to a sink that takes ownership.
func okForwarded(pool *exec.PagePool) {
	pg := pool.Get(8)
	Sink(pg)
}

// okReturned transfers the reference to the caller.
func okReturned(pool *exec.PagePool) *exec.Page {
	return pool.Get(8)
}

// okStored parks the reference in a data structure.
func okStored(pool *exec.PagePool, runs *[]*exec.Page) {
	pg := pool.Get(8)
	*runs = append(*runs, pg)
}

// okSent transfers the reference over a channel.
func okSent(pool *exec.PagePool, out chan *exec.Page) {
	pg := pool.Get(8)
	out <- pg
}

// okLoopBody balances within each iteration.
func okLoopBody(pool *exec.PagePool, n int) {
	for i := 0; i < n; i++ {
		pg := pool.Get(8)
		pg.Release()
	}
}

// okClosureCapture lets the closure own the discharge.
func okClosureCapture(pool *exec.PagePool) func() {
	pg := pool.Get(8)
	return func() {
		pg.Release()
	}
}

// leakOnContinue skips the release when the filter rejects the page: the
// reference rides the back edge into the next iteration, stranded.
func leakOnContinue(pool *exec.PagePool, n int) {
	for i := 0; i < n; i++ {
		pg := pool.Get(8) // want `page "pg" from PagePool.Get is never released, forwarded, stored, or returned`
		if pg.Len() == 0 {
			continue
		}
		pg.Release()
	}
}

// leakReacquire overwrites a live reference, stranding the first one.
func leakReacquire(pool *exec.PagePool) {
	pg := pool.Get(8) // want `page "pg" from PagePool.Get is never released, forwarded, stored, or returned`
	pg = pool.Get(16)
	pg.Release()
}

// okReleasePrev releases the previous iteration's reference before taking
// the next; the nil check proves the first iteration holds nothing.
func okReleasePrev(pool *exec.PagePool, n int) {
	var prev *exec.Page
	for i := 0; i < n; i++ {
		if prev != nil {
			prev.Release()
		}
		prev = pool.Get(8)
	}
	if prev != nil {
		prev.Release()
	}
}

// okLoopEarlyBreak discharges before leaving the loop on every path.
func okLoopEarlyBreak(pool *exec.PagePool, n int) {
	for i := 0; i < n; i++ {
		pg := pool.Get(8)
		if pg.Len() == 0 {
			pg.Release()
			break
		}
		pg.Release()
	}
}
