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

// StagePool is the stage runtime of §4.1: each stage owns a task queue, a
// dedicated worker pool and a monitor, and its workers serve only its tasks.
// The front end's query stages (connect/parse/optimize/execute/disconnect)
// and the execution engine's operator stages (fscan/iscan/filter/sort/join/
// aggr/exec, §4.3) all run on it. Operator drive loops are resumable (see
// opTask), so a task blocked on a page exchange yields its worker instead of
// occupying it — the property that makes bounded pools deadlock-free here.
//
// A StagePool may be shared by many concurrent pipelines.
type StagePool struct {
	cfg StagePoolConfig

	// mu guards the stage map only: a push looks its stage up under it and
	// releases it before touching the stage.
	mu     sync.Mutex
	stages map[string]*poolStage
	order  []*poolStage // creation order
	closed bool

	stopped chan struct{}
	wg      sync.WaitGroup
}

// poolStage is one stage (§4.1.1): its queue, the workers that serve it, and
// the monitor that watches it (§5.2). One mutex guards the queue and the
// monitor together, so the queue length the monitor reports is the queue's.
type poolStage struct {
	pool    *StagePool
	name    string
	workers int // fixed for the stage's life
	depth   int // bound on queued

	// wake (one slot) pings a sleeping worker after each push. A ping is
	// dropped when the slot is already full, e.g. when two pushes land
	// while two workers are between finding the lists empty and parking:
	// one ping wakes one of them. So the worker that takes a task passes
	// the wake on while tasks remain, and no task waits while a worker
	// sleeps.
	wake chan struct{}
	// space (one slot) pings a submitter waiting on a full queued list after
	// each take from it; a woken submitter passes it on while room remains,
	// for the same reason.
	space chan struct{}

	mu     sync.Mutex
	ready  []Task // woken continuations; served first, never bounded
	queued []Task // new tasks; at most depth (back-pressure)
	closed bool   // a worker found the pool stopped and both lists empty

	enqueued, dequeued int64
	serviced           int
	busy               time.Duration
	maxQueue           int
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

// stage returns the named stage, creating it while the pool is open with
// the given worker count and queue depth (0 = the pool defaults); nil for a
// stage that does not exist once the pool is closed.
func (p *StagePool) stage(name string, workers, queueDepth int) *poolStage {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ps, ok := p.stages[name]; ok || p.closed {
		return ps
	}
	if workers <= 0 {
		workers = p.cfg.Workers
	}
	if queueDepth <= 0 {
		queueDepth = p.cfg.QueueDepth
	}
	ps := &poolStage{
		pool:    p,
		name:    name,
		workers: workers,
		depth:   queueDepth,
		wake:    make(chan struct{}, 1),
		space:   make(chan struct{}, 1),
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
// first analytic query. A worker added up front parks on its stage during
// engine construction instead, so the first task wakes it by channel send
// exactly like every later one.
func (p *StagePool) AddStage(name string, workers, queueDepth int) {
	p.stage(name, workers, queueDepth)
}

// Submit admits a task to its stage's queue, blocking while the queue is
// full (back-pressure: the submitting stage freezes, the rest of the system
// keeps running, §4.1.1). A task for a stage that has closed, or still
// waiting for room when the pool stops, runs on a goroutine of its own, so
// nothing strands.
func (p *StagePool) Submit(t Task) {
	ps := p.stage(StageClass(t.Stage()), 0, 0)
	for woken := false; ps != nil; woken = true {
		ps.mu.Lock()
		if ps.closed {
			ps.mu.Unlock()
			break
		}
		if len(ps.queued) < ps.depth {
			ps.queued = append(ps.queued, t)
			ps.arrivedLocked()
			room := len(ps.queued) < ps.depth
			ps.mu.Unlock()
			ping(ps.wake)
			if woken && room {
				ping(ps.space)
			}
			return
		}
		ps.mu.Unlock()
		// Queue full: wait for a worker to take a task, then retry.
		select {
		case <-ps.space:
		case <-p.stopped:
			ps = nil
		}
	}
	go t.Run()
}

// ready re-enqueues a woken continuation. Ready tasks bypass the bound on
// queued — a waker must never block — and are served before queued ones.
func (p *StagePool) ready(t Task) {
	if ps := p.stage(StageClass(t.Stage()), 0, 0); ps != nil {
		ps.mu.Lock()
		if !ps.closed {
			ps.ready = append(ps.ready, t)
			ps.arrivedLocked()
			ps.mu.Unlock()
			ping(ps.wake)
			return
		}
		ps.mu.Unlock()
	}
	go t.Run()
}

// arrivedLocked counts a push into ready or queued. Callers hold ps.mu.
func (ps *poolStage) arrivedLocked() {
	ps.enqueued++
	if n := len(ps.ready) + len(ps.queued); n > ps.maxQueue {
		ps.maxQueue = n
	}
}

// ping sends on a one-slot channel unless a ping is already pending there.
func ping(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// worker is one stage thread: take a task, run it until it completes, parks
// or moves on to its next stage, repeat.
func (ps *poolStage) worker() {
	defer ps.pool.wg.Done()
	for t := ps.take(-1); t != nil; {
		start := time.Now()
		t.Run()
		t = ps.take(time.Since(start))
	}
}

// take records the service time of the task the worker just ran (served;
// negative for none) and blocks for the next task, ready list first. It
// passes the wake on if tasks remain, so a sleeper whose ping was dropped
// still gets one. Once the pool has stopped and both lists are empty it
// marks the stage closed, so a later push runs its task on a goroutine
// instead, and returns nil.
func (ps *poolStage) take(served time.Duration) Task {
	ps.mu.Lock()
	if served >= 0 {
		ps.busy += served
		ps.serviced++
	}
	stopped := false
	for len(ps.ready)+len(ps.queued) == 0 {
		if ps.closed || stopped {
			ps.closed = true
			ps.mu.Unlock()
			return nil
		}
		ps.mu.Unlock()
		select {
		case <-ps.wake:
		case <-ps.pool.stopped:
			stopped = true
		}
		ps.mu.Lock()
	}
	fromQueued := len(ps.ready) == 0
	var t Task
	if fromQueued {
		t = popFront(&ps.queued)
	} else {
		t = popFront(&ps.ready)
	}
	ps.dequeued++
	more := len(ps.ready)+len(ps.queued) > 0
	ps.mu.Unlock()
	if more {
		ping(ps.wake)
	}
	if fromQueued {
		ping(ps.space)
	}
	return t
}

// popFront removes and returns the oldest task of a list. It shifts the rest
// down rather than reslicing, so a list keeps its backing array and a push
// allocates only when the list outgrows it.
func popFront(list *[]Task) Task {
	l := *list
	t := l[0]
	n := copy(l, l[1:])
	l[n] = nil
	*list = l[:n]
	return t
}

// QueueLen reports the tasks waiting at a stage (queued or woken), 0 if the
// stage has not been created yet.
func (p *StagePool) QueueLen(stage string) int {
	p.mu.Lock()
	ps, ok := p.stages[StageClass(stage)]
	p.mu.Unlock()
	if !ok {
		return 0
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.ready) + len(ps.queued)
}

// Snapshot returns each stage's monitor (queue length, service counts,
// worker pool size) in stage creation order.
func (p *StagePool) Snapshot() []metrics.StageSnapshot {
	p.mu.Lock()
	stages := append([]*poolStage(nil), p.order...)
	p.mu.Unlock()
	out := make([]metrics.StageSnapshot, len(stages))
	for i, ps := range stages {
		out[i] = ps.snapshot()
	}
	return out
}

func (ps *poolStage) snapshot() metrics.StageSnapshot {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	s := metrics.StageSnapshot{
		Name:     ps.name,
		Enqueued: ps.enqueued,
		Dequeued: ps.dequeued,
		Serviced: ps.serviced,
		Busy:     ps.busy,
		QueueLen: len(ps.ready) + len(ps.queued),
		MaxQueue: ps.maxQueue,
		Workers:  ps.workers,
	}
	if ps.serviced > 0 {
		s.MeanService = ps.busy / time.Duration(ps.serviced)
	}
	return s
}

// Close stops the pool. Workers drain their stage's lists before exiting,
// and any task that becomes runnable afterwards (or arrives late) runs on a
// plain goroutine, so in-flight work always completes. Close is idempotent.
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
}
