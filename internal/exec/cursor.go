package exec

// cursor.go is the streaming delivery path of the client API: instead of
// materializing a query's full result set inside the engine, both drivers
// can hand the caller a Cursor that yields the execution's exchange pages
// one at a time. The client holds O(page) memory, pooled pages stay checked
// out only until the client consumes them, and an early Close abandons the
// producing pipeline exactly like a satisfied LIMIT — operators observe
// termination, synchronized scans deregister, and every buffered page
// drains back to the pool.

import (
	"context"

	"stagedb/internal/plan"
	"stagedb/internal/value"
)

// Cursor streams a query's result pages to one consumer.
//
// Ownership: a page returned by NextPage belongs to the caller, who must
// Release it once its rows are consumed. Its rows live exactly as long as the
// page: after Release they are recycled storage, so a caller that keeps a row
// copies it first (see pagepool.go). Cursors are not safe for concurrent use.
type Cursor interface {
	// NextPage returns the next result page, or nil at end of stream. On
	// the staged driver a nil page also reports the pipeline's failure, if
	// any (including context cancellation). Both drivers check the
	// execution's context before every page: once it is cancelled, the next
	// call fails with its error, even if produced pages are still buffered.
	NextPage() (*Page, error)
	// Close ends the execution: a partially consumed stream is abandoned
	// (producers terminate early), buffered pages recycle to the pool, and
	// the first execution error is returned. Close is idempotent.
	Close() error
}

// opCursor pulls pages through a Volcano operator tree on the caller's
// goroutine — the streaming form of RunCtx.
type opCursor struct {
	ctx    context.Context
	op     Operator
	err    error
	closed bool
}

// NewCursor opens op and returns a cursor pulling from it. A non-nil ctx is
// checked before every page, so cancellation stops the pull between pages.
func NewCursor(ctx context.Context, op Operator) (Cursor, error) {
	if err := op.Open(); err != nil {
		op.Close()
		return nil, err
	}
	return &opCursor{ctx: ctx, op: op}, nil
}

func (c *opCursor) NextPage() (*Page, error) {
	if c.closed || c.err != nil {
		return nil, c.err
	}
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			c.err = err
			return nil, err
		}
	}
	pg, err := c.op.Next()
	if err != nil {
		c.err = err
		return nil, err
	}
	return pg, nil
}

func (c *opCursor) Close() error {
	if c.closed {
		return c.err
	}
	c.closed = true
	if err := c.op.Close(); err != nil && c.err == nil {
		c.err = err
	}
	return c.err
}

// stagedCursor streams the root exchange of a staged pipeline. The operator
// tasks keep running on their stages; the client's goroutine only receives.
type stagedCursor struct {
	p    *pipeline
	root *exchange
	ctx  context.Context // checked before every page (the NextPage contract); nil when not cancellable
	stop func() bool     // unregisters the cancellation hook; nil without one
	done bool
	err  error
}

// RunStagedCursor launches the plan on the staged execution engine (one task
// per operator, scheduled on its stage of pool) and returns a cursor over the
// final exchange. Close — or end of stream — tears the pipeline down: it
// waits for every operator task and recycles every page stranded in
// buffers, so the query returns with its page-pool balance at zero. When
// opts.Ctx is cancellable, cancellation fails the pipeline and surfaces as
// the cursor's error: the cursor checks it before every page, as opCursor
// does, and a hook wakes a client blocked on a read.
func RunStagedCursor(n plan.Node, tables Tables, pool *StagePool, opts StagedOptions) (Cursor, error) {
	p := &pipeline{
		tables:      tables,
		sched:       pool,
		bufferPages: opts.BufferPages,
		shared:      opts.Shared,
		done:        make(chan struct{}),
	}
	root, err := p.launch(n, BuildConfig{
		PageRows: opts.PageRows,
		Pool:     opts.Pool,
		WorkMem:  opts.WorkMem,
		TempDir:  opts.TempDir,
		Spill:    opts.Spill,
		Visible:  opts.Visible,
	})
	if err != nil {
		p.fail(err)
		p.running.Wait()
		p.drainPages()
		return nil, err
	}
	c := &stagedCursor{p: p, root: root}
	if ctx := opts.Ctx; ctx != nil && ctx.Done() != nil {
		// Cancellation propagates as a pipeline failure: parked tasks wake,
		// producers stop at their next exchange operation, and the blocked
		// client read returns. The hook costs no goroutine; finish
		// unregisters it, and one firing after teardown is a no-op (fail
		// runs once).
		c.ctx = ctx
		c.stop = context.AfterFunc(ctx, func() { p.fail(ctx.Err()) })
	}
	return c, nil
}

func (c *stagedCursor) NextPage() (*Page, error) {
	if c.done {
		return nil, c.err
	}
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			c.p.fail(err)
			c.finish()
			return nil, c.err
		}
	}
	pg, _ := c.root.Next() // blocking exchange read; never errors
	if pg == nil {
		// End of stream or pipeline failure: tear down now so the error (if
		// any) is reported with the final nil page.
		c.finish()
		return nil, c.err
	}
	return pg, nil
}

// finish releases the pipeline: an operator that stopped being read
// (abandonment) leaves upstream producers blocked on their exchanges;
// closing done lets them observe termination and finish. Then wait for
// every operator drive loop — scans read heap pages only on their own
// tasks, and the caller releases the query's table locks after Close
// returns — and recycle pages stranded in buffers.
func (c *stagedCursor) finish() {
	if c.done {
		return
	}
	c.done = true
	if c.stop != nil {
		c.stop()
	}
	p := c.p
	p.fail(nil) // no-op if a real failure (or cancellation) already fired
	p.running.Wait()
	p.drainPages()
	c.err = p.err
}

func (c *stagedCursor) Close() error {
	c.finish()
	return c.err
}

// Drain materializes a cursor's remaining pages into rows and closes it —
// the bridge from the one streaming delivery path back to the classic []Row
// result shape. The rows are copied into storage of their own (the pages they
// arrive on recycle as soon as they are drained), so the result never aliases
// a page.
func Drain(c Cursor) ([]value.Row, error) {
	var out []value.Row
	var vals arena[value.Value]
	for {
		pg, err := c.NextPage()
		if err != nil {
			c.Close()
			return nil, err
		}
		if pg == nil {
			break
		}
		n := pg.Len()
		for i := 0; i < n; i++ {
			out = append(out, copyRow(&vals, pg.Row(i)))
		}
		pg.Release()
	}
	if err := c.Close(); err != nil {
		return nil, err
	}
	return out, nil
}
