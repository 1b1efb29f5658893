package exec

// stage.go is the staged driver (§4.1.1–4.1.2): every operator of a plan
// becomes a resumable task scheduled on its stage's bounded queue and worker
// pool (StagePool, pool.go), tasks hand pages to each other through bounded
// exchanges, and a task that cannot make progress registers a waker and
// gives up its worker; the waker re-enqueues it. No operator task runs any
// other way.

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"stagedb/internal/plan"
	"stagedb/internal/value"
)

// errWouldBlock is returned by non-blocking exchange reads (and propagated
// unchanged through operator Next calls) when no page is available yet.
// Operators keep their accumulation state in fields, so a task that sees
// errWouldBlock can yield its worker and resume exactly where it left off.
var errWouldBlock = errors.New("exec: operator would block")

// pipeline is one staged query execution: a tree of operator tasks joined by
// bounded page buffers.
type pipeline struct {
	tables      Tables
	sched       *StagePool // owns the stage queues and workers the tasks run on
	bufferPages int
	shared      *SharedScans // non-nil: fscan operators synchronize through it

	done     chan struct{} // closed on failure or cancellation
	failOnce sync.Once
	err      error

	// running counts launched operator drive loops; RunStaged waits for all
	// of them before returning so every pooled page the query checked out is
	// back in the pool (and no operator outlives the query's table locks).
	running sync.WaitGroup

	mu        sync.Mutex
	tasks     []*opTask   // resumable tasks, woken on failure
	exchanges []*exchange // all inter-operator buffers, drained at teardown
}

// drainPages releases every page still buffered in the pipeline's
// exchanges. Called after all operator tasks have finished (their exchanges
// are closed), it is the last step of the page-recycle protocol: a query
// that stopped reading early (LIMIT, abandonment, failure) leaves pages
// stranded in its buffers, and those must go back to the pool.
func (p *pipeline) drainPages() {
	p.mu.Lock()
	exs := append([]*exchange(nil), p.exchanges...)
	p.mu.Unlock()
	for _, ex := range exs {
		ex.drainRelease()
	}
}

func (p *pipeline) fail(err error) {
	p.failOnce.Do(func() {
		p.err = err
		close(p.done)
		// Parked tasks must observe the failure: wake them all so they
		// re-step, see the closed done channel, and finish.
		p.mu.Lock()
		tasks := append([]*opTask(nil), p.tasks...)
		p.mu.Unlock()
		for _, t := range tasks {
			t.wake()
		}
	})
}

// trySend outcomes.
const (
	sendOK      = iota // page delivered
	sendBlocked        // buffer full; waker registered
	sendFailed         // pipeline failed; stop producing
)

// exchange is the intermediate result buffer of §4.1.2: a bounded
// producer-consumer page queue. A producer that finds the buffer full
// registers a waker and yields its worker instead of blocking. Each exchange
// has exactly one producer task and one consumer (a task, or the client
// draining the root).
type exchange struct {
	ch   chan *Page
	done <-chan struct{}

	// mu orders channel operations against waiter registration so wakeups
	// are never lost: a side that fails to make progress registers its waker
	// under the same lock the opposite side uses to act.
	mu         sync.Mutex
	sendWaiter func() // producer continuation, fired when space frees
	recvWaiter func() // consumer continuation, fired when a page arrives
}

func newExchange(bufferPages int, done <-chan struct{}) *exchange {
	if bufferPages <= 0 {
		bufferPages = 4
	}
	return &exchange{ch: make(chan *Page, bufferPages), done: done}
}

// trySend attempts a non-blocking delivery. On sendBlocked the waker is
// registered and will fire once the consumer frees a slot.
func (e *exchange) trySend(pg *Page, wake func()) int {
	select {
	case <-e.done:
		return sendFailed
	default:
	}
	e.mu.Lock()
	select {
	case e.ch <- pg:
		e.sendWaiter = nil
		w := e.recvWaiter
		e.recvWaiter = nil
		e.mu.Unlock()
		if w != nil {
			w()
		}
		return sendOK
	default:
		e.sendWaiter = wake
		e.mu.Unlock()
		return sendBlocked
	}
}

// tryNext is the non-blocking read: it returns errWouldBlock (registering
// the waker) when the producer has not caught up yet, and (nil, nil) at end
// of stream or after pipeline failure.
func (e *exchange) tryNext(wake func()) (*Page, error) {
	e.mu.Lock()
	select {
	case pg, ok := <-e.ch:
		e.recvWaiter = nil
		w := e.sendWaiter
		e.sendWaiter = nil
		e.mu.Unlock()
		if w != nil {
			w()
		}
		if !ok {
			return nil, nil
		}
		return pg, nil
	default:
	}
	select {
	case <-e.done:
		// Pipeline failed with nothing buffered; the error is reported by
		// RunStaged.
		e.mu.Unlock()
		return nil, nil
	default:
	}
	e.recvWaiter = wake
	e.mu.Unlock()
	return nil, errWouldBlock
}

func (e *exchange) wakeSender() {
	e.mu.Lock()
	w := e.sendWaiter
	e.sendWaiter = nil
	e.mu.Unlock()
	if w != nil {
		w()
	}
}

// drainRelease empties whatever pages remain buffered, returning them to
// their pool. Only called at pipeline teardown, after the producer finished
// (the channel is closed or will receive nothing more) and the consumer
// stopped reading; a racing consumer read is harmless — each page is
// received, and released, exactly once.
func (e *exchange) drainRelease() {
	for {
		select {
		case pg, ok := <-e.ch:
			if !ok {
				return
			}
			pg.Release()
		default:
			return
		}
	}
}

func (e *exchange) close() {
	e.mu.Lock()
	close(e.ch)
	w := e.recvWaiter
	e.recvWaiter = nil
	e.mu.Unlock()
	if w != nil {
		w()
	}
}

// Open implements Operator.
func (e *exchange) Open() error { return nil }

// Next implements Operator: it blocks on the producing stage. Every
// successful receive wakes a producer that yielded on a full buffer.
func (e *exchange) Next() (*Page, error) {
	select {
	case pg, ok := <-e.ch:
		e.wakeSender()
		if !ok {
			return nil, nil
		}
		return pg, nil
	case <-e.done:
		// Drain anything already buffered before giving up, so producers
		// that finished before the failure do not lose pages; the pipeline
		// error is reported by RunStaged.
		select {
		case pg, ok := <-e.ch:
			e.wakeSender()
			if !ok {
				return nil, nil
			}
			return pg, nil
		default:
			return nil, nil
		}
	}
}

// Close implements Operator.
func (e *exchange) Close() error { return nil }

// nbSource adapts a child exchange for its consumer task: reads are
// non-blocking, and a read that cannot proceed registers the task's waker
// before reporting errWouldBlock.
type nbSource struct {
	ex   *exchange
	task *opTask
}

// Open implements Operator.
func (s *nbSource) Open() error { return nil }

// Next implements Operator.
func (s *nbSource) Next() (*Page, error) { return s.ex.tryNext(s.task.wake) }

// Close implements Operator.
func (s *nbSource) Close() error { return nil }

// taskStatus is the outcome of one task activation.
type taskStatus int

const (
	taskDone    taskStatus = iota // operator finished (or failed)
	taskBlocked                   // yielded on an exchange; waker registered
)

// opTask drives one operator as a resumable continuation. The paper's stage
// threads never sleep on a blocked packet — they re-enqueue it and serve the
// next one (§4.1.1); step/park/wake implement that protocol on top of the
// operators' field-held state.
type opTask struct {
	pipe  *pipeline
	stage string
	op    Operator
	out   *exchange

	opened  bool
	pending *Page // produced but not yet delivered downstream

	mu          sync.Mutex
	parked      bool
	wakePending bool
}

// step advances the drive loop until the operator finishes or would block on
// an exchange.
func (t *opTask) step() taskStatus {
	if !t.opened {
		if err := t.op.Open(); err != nil {
			t.finish(err)
			return taskDone
		}
		t.opened = true
	}
	for {
		if t.pending != nil {
			switch t.out.trySend(t.pending, t.wake) {
			case sendOK:
				t.pending = nil
				// A page is the scheduling quantum. The send just made the
				// downstream consumer runnable via the scheduler's direct-
				// handoff slot; on a single-P runtime the pair would otherwise
				// ping-pong there for the whole scan, starving unrelated
				// runnable goroutines (a concurrent writer's stage chain) in
				// the local run queue. Yield once per delivered page so
				// co-runnable work rotates in at page granularity.
				runtime.Gosched()
			case sendBlocked:
				return taskBlocked
			default: // sendFailed
				t.finish(nil)
				return taskDone
			}
			continue
		}
		pg, err := t.op.Next()
		if err == errWouldBlock {
			return taskBlocked
		}
		if err != nil {
			t.finish(err)
			return taskDone
		}
		if pg == nil {
			t.finish(nil)
			return taskDone
		}
		t.pending = pg
	}
}

func (t *opTask) finish(err error) {
	if err != nil {
		t.pipe.fail(err)
	}
	if t.pending != nil {
		// A page produced but never delivered (the pipeline ended first)
		// still belongs to this task; recycle it.
		t.pending.Release()
		t.pending = nil
	}
	if t.opened {
		t.op.Close()
	}
	t.out.close()
	t.pipe.running.Done()
}

// wake makes a parked task runnable again (re-enqueueing it at its stage),
// or records the wakeup if the task is mid-activation so it re-steps before
// parking.
func (t *opTask) wake() {
	t.mu.Lock()
	if t.parked {
		t.parked = false
		t.mu.Unlock()
		t.pipe.sched.ready(t)
		return
	}
	t.wakePending = true
	t.mu.Unlock()
}

// park records the task as suspended after a blocked step. It reports false
// when a wakeup raced in, in which case the caller must keep stepping.
func (t *opTask) park() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wakePending {
		t.wakePending = false
		return false
	}
	t.parked = true
	return true
}

// Stage implements Task: the operator's stage label ("fscan:tenk" runs on
// the fscan stage).
func (t *opTask) Stage() string { return t.stage }

// Run implements Task: it steps the task until it completes or genuinely
// parks. Pooled workers and the post-close fallback both use it.
func (t *opTask) Run() {
	for {
		switch t.step() {
		case taskDone:
			return
		case taskBlocked:
			if t.park() {
				return
			}
		}
	}
}

// registerExchange records an inter-operator buffer for teardown draining.
func (p *pipeline) registerExchange(ex *exchange) {
	p.mu.Lock()
	p.exchanges = append(p.exchanges, ex)
	p.mu.Unlock()
}

// launch builds the operator for n with its children replaced by exchanges,
// then schedules it on the node's stage as a resumable opTask whose child
// reads and output writes are non-blocking, so a blocked operator yields its
// stage worker instead of occupying it. Children are launched first:
// activation proceeds bottom-up with respect to the operator tree, the
// paper's "page push" model.
func (p *pipeline) launch(n plan.Node, cfg BuildConfig) (*exchange, error) {
	t := &opTask{pipe: p, stage: plan.StageOf(n)}
	var childSources []Operator
	for i, c := range n.Children() {
		src, err := p.launch(c, cfg.forChild(n, i))
		if err != nil {
			return nil, err
		}
		childSources = append(childSources, &nbSource{ex: src, task: t})
	}
	op, err := BuildNode(n, childSources, p.tables, cfg)
	if err != nil {
		return nil, err
	}
	if sc, ok := op.(*seqScan); ok {
		sc.shared = p.shared
	}
	t.op = op
	t.out = newExchange(p.bufferPages, p.done)
	p.registerExchange(t.out)
	p.mu.Lock()
	p.tasks = append(p.tasks, t)
	p.mu.Unlock()
	p.running.Add(1)
	p.sched.Submit(t)
	return t.out, nil
}

// StagedOptions tunes one staged execution.
type StagedOptions struct {
	// PageRows fixes the rows per exchange page; 0 sizes them per operator
	// (see BuildConfig.PageRows).
	PageRows int
	// BufferPages bounds each inter-operator page buffer (0 = 4).
	BufferPages int
	// Shared, when non-nil, synchronizes fscan operators with the other
	// scans of their heap in flight: each starts at the position the
	// registry holds instead of at page 0.
	Shared *SharedScans
	// Pool, when non-nil, recycles exchange pages across queries instead of
	// allocating them fresh (see pagepool.go for the ownership protocol).
	Pool *PagePool
	// WorkMem is the per-query memory budget of the stateful operators (see
	// BuildConfig.WorkMem).
	WorkMem int64
	// TempDir hosts spill files ("" = os.TempDir()).
	TempDir string
	// Spill accumulates spill counters (nil = discarded).
	Spill *SpillMetrics
	// Visible decides per-version visibility for this query's snapshot
	// (see BuildConfig.Visible; nil = the latest state).
	Visible VisibleFunc
	// Ctx, when cancellable, aborts the execution between pages: the
	// pipeline fails with the context's error, producers stop, and every
	// checked-out page drains back to the pool.
	Ctx context.Context
}

// RunStaged executes the plan with one task per operator, each scheduled on
// its stage of pool, connected by bounded page buffers. It returns the full
// result set; RunStagedCursor (cursor.go) is the streaming form this wraps.
func RunStaged(n plan.Node, tables Tables, pool *StagePool, opts StagedOptions) ([]value.Row, error) {
	cur, err := RunStagedCursor(n, tables, pool, opts)
	if err != nil {
		return nil, err
	}
	return Drain(cur)
}
