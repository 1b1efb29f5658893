package exec

import (
	"strings"
	"sync"
	"time"

	"stagedb/internal/metrics"
)

// Task is one unit of work a stage serves (the packet of §4.1.1): an
// operator's resumable drive loop (opTask) or a front-end request. Run serves
// it at the stage Stage names; a task bound for another stage afterwards
// submits itself there.
type Task interface {
	Stage() string
	Run()
}

// StagePoolConfig sizes the stages a StagePool creates without AddStage.
type StagePoolConfig struct {
	// Workers is a stage's worker count (0 = 2), fixed for the stage's life.
	Workers int
	// QueueDepth bounds a stage's task queue; submitting into a full queue
	// blocks the submitter (back-pressure). Default 64.
	QueueDepth int
}

// StagePool is the stage runtime of §4.1: each stage owns a bounded task
// queue, a dedicated worker pool and a monitor, and its workers serve only its
// tasks. The front end's query stages (connect/parse/optimize/execute/
// disconnect) and the execution engine's operator stages (fscan/iscan/filter/
// sort/join/aggr/exec, §4.3) all run on it. Operator drive loops are
// resumable (see opTask), so a task blocked on a page exchange yields its
// worker instead of occupying it — the property that makes bounded pools
// deadlock-free here.
//
// A StagePool may be shared by many concurrent pipelines.
type StagePool struct {
	cfg StagePoolConfig

	mu     sync.Mutex // guards stages, order, ready lists, closed
	stages map[string]*poolStage
	order  []*poolStage // creation order
	closed bool

	stopped chan struct{}
	wg      sync.WaitGroup
}

// poolStage is one stage: bounded submission queue, ready list of woken
// continuations, worker pool, and monitor.
type poolStage struct {
	pool    *StagePool
	name    string
	workers int // fixed for the stage's life
	stats   *metrics.StageStats

	submit chan Task     // new tasks; bounded for back-pressure
	notify chan struct{} // pings sleeping workers about ready-list pushes
	space  chan struct{} // pings blocked submitters after a submit dequeue

	ready []Task // woken continuations, served before submit; guarded by pool.mu
}

// NewStagePool starts an empty pool; stages not created by AddStage spin up
// lazily as tasks are submitted to them.
func NewStagePool(cfg StagePoolConfig) *StagePool {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	return &StagePool{
		cfg:     cfg,
		stages:  make(map[string]*poolStage),
		stopped: make(chan struct{}),
	}
}

// StageClass normalizes an operator stage label to its pool name: per-table
// scan labels ("fscan:tenk") share their class pool ("fscan").
func StageClass(stage string) string {
	if i := strings.IndexByte(stage, ':'); i >= 0 {
		return stage[:i]
	}
	return stage
}

// stageLocked returns (creating if needed, with the given worker count and
// queue depth, 0 = the pool defaults) the stage of that name. Callers hold
// p.mu.
func (p *StagePool) stageLocked(name string, workers, queueDepth int) *poolStage {
	ps, ok := p.stages[name]
	if ok {
		return ps
	}
	if workers <= 0 {
		workers = p.cfg.Workers
	}
	if queueDepth <= 0 {
		queueDepth = p.cfg.QueueDepth
	}
	ps = &poolStage{
		pool:    p,
		name:    name,
		stats:   metrics.NewStageStats(name),
		submit:  make(chan Task, queueDepth),
		notify:  make(chan struct{}, 1),
		space:   make(chan struct{}, 1),
		workers: workers,
	}
	p.stages[name] = ps
	p.order = append(p.order, ps)
	p.wg.Add(workers)
	for range workers {
		go ps.worker()
	}
	return ps
}

// AddStage creates a stage with its own worker count and queue depth (0 =
// the pool defaults) and parks its workers now; it does nothing if the stage
// exists or the pool is closed. Lazily spawned workers are hostage to
// scheduler fairness at their first activation: a brand-new goroutine enters
// the run queue cold, and on a single-CPU runtime a channel-handoff chain
// between already-running goroutines (a closed-loop writer ping-ponging with
// the front-end stage workers) can starve it until the next GC pause —
// observed as a multi-hundred-millisecond time-to-first-row spike on the
// first analytic query. A worker added up front parks on its queue during
// engine construction instead, so the first task wakes it by channel send
// exactly like every later one.
func (p *StagePool) AddStage(name string, workers, queueDepth int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.stageLocked(name, workers, queueDepth)
	}
}

// Submit admits a task to its stage queue, blocking while the queue is full
// (back-pressure: the submitting stage freezes, the rest of the system keeps
// running, §4.1.1). After Close the task runs on a dedicated goroutine so
// nothing strands. Sends into a queue only happen under p.mu with the pool
// open, so Close can drain the queues once and know nothing arrives later.
func (p *StagePool) Submit(t Task) {
	class := StageClass(t.Stage())
	var ps *poolStage // set once the arrival is recorded
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			if ps != nil {
				// Compensate the arrival we recorded before falling back.
				ps.stats.OnDequeue()
			}
			go t.Run()
			return
		}
		if ps == nil {
			ps = p.stageLocked(class, 0, 0)
			ps.stats.OnEnqueue()
		}
		select {
		case ps.submit <- t:
			p.mu.Unlock()
			return
		default:
		}
		p.mu.Unlock()
		// Queue full: wait for a worker to free a slot, then retry.
		select {
		case <-ps.space:
		case <-p.stopped:
		}
	}
}

// ready re-enqueues a woken continuation. Ready tasks bypass the bounded
// submit queue — a waker must never block.
func (p *StagePool) ready(t Task) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		go t.Run()
		return
	}
	ps := p.stageLocked(StageClass(t.Stage()), 0, 0)
	// Record the arrival before a worker can take the task and record its
	// departure: the other order leaves the monitor's queue length one high.
	ps.stats.OnEnqueue()
	ps.ready = append(ps.ready, t)
	p.mu.Unlock()
	select {
	case ps.notify <- struct{}{}:
	default:
	}
}

// worker is one stage thread: take a task, run it until it completes, parks
// or moves on to its next stage, repeat.
func (ps *poolStage) worker() {
	defer ps.pool.wg.Done()
	for t := ps.take(); t != nil; t = ps.take() {
		ps.stats.OnDequeue()
		start := time.Now()
		t.Run()
		ps.stats.OnService(time.Since(start))
	}
}

// take blocks for the next task. It returns nil when the pool stopped and
// the queues are drained.
func (ps *poolStage) take() Task {
	p := ps.pool
	for {
		p.mu.Lock()
		if len(ps.ready) > 0 {
			t := ps.ready[0]
			ps.ready = ps.ready[1:]
			p.mu.Unlock()
			return t
		}
		p.mu.Unlock()
		select {
		case t := <-ps.submit:
			ps.signalSpace()
			return t
		case <-ps.notify:
		case <-p.stopped:
			// Drain remaining work before exiting so close is clean.
			return ps.tryTake()
		}
	}
}

// signalSpace pings one submitter blocked on a full submit queue.
func (ps *poolStage) signalSpace() {
	select {
	case ps.space <- struct{}{}:
	default:
	}
}

// tryTake returns a queued task without blocking, ready list first.
func (ps *poolStage) tryTake() Task {
	p := ps.pool
	p.mu.Lock()
	if len(ps.ready) > 0 {
		t := ps.ready[0]
		ps.ready = ps.ready[1:]
		p.mu.Unlock()
		return t
	}
	p.mu.Unlock()
	select {
	case t := <-ps.submit:
		ps.signalSpace()
		return t
	default:
		return nil
	}
}

// QueueLen reports the tasks waiting at a stage (queued or woken), 0 if the
// stage has not been created yet.
func (p *StagePool) QueueLen(stage string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ps, ok := p.stages[StageClass(stage)]; ok {
		return len(ps.submit) + len(ps.ready)
	}
	return 0
}

// Snapshot returns each stage's monitor (queue length, service counts,
// worker pool size) in stage creation order.
func (p *StagePool) Snapshot() []metrics.StageSnapshot {
	p.mu.Lock()
	stages := append([]*poolStage(nil), p.order...)
	p.mu.Unlock()
	out := make([]metrics.StageSnapshot, len(stages))
	for i, ps := range stages {
		out[i] = ps.stats.Snapshot()
		out[i].Workers = ps.workers
	}
	return out
}

// Close stops the pool. Workers drain queued tasks before exiting, and any
// task that becomes runnable afterwards (or arrives late) runs on a plain
// goroutine, so in-flight work always completes. Close is idempotent.
func (p *StagePool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.stopped)
	p.mu.Unlock()
	p.wg.Wait()
	// Strand-proof sweep: tasks readied while the last workers were exiting.
	p.mu.Lock()
	var rest []Task
	for _, ps := range p.order {
		rest = append(rest, ps.ready...)
		ps.ready = nil
		for {
			select {
			case t := <-ps.submit:
				rest = append(rest, t)
				continue
			default:
			}
			break
		}
	}
	p.mu.Unlock()
	for _, t := range rest {
		go t.Run()
	}
}
