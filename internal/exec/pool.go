package exec

import (
	"sort"
	"strings"
	"sync"
	"time"

	"stagedb/internal/metrics"
)

// StagePoolConfig sizes the pooled execution-stage scheduler.
type StagePoolConfig struct {
	// Workers is the initial worker-pool size of each operator stage
	// (0 = 2). Resize adjusts individual stages at runtime.
	Workers int
	// QueueDepth bounds each stage's task queue; launching a pipeline into
	// a full queue blocks the submitter (back-pressure). Default 64.
	QueueDepth int
	// Batch is the local scheduling knob: a worker drains up to Batch tasks
	// per activation while the stage's working set is hot, mirroring
	// core.Stage.worker (§4.1.2 cache-locality batching). Default 4.
	Batch int
}

// StagePool is the pooled, batched execution-stage scheduler of §4.1.2: each
// operator stage (fscan/iscan/filter/sort/join/aggr/exec) owns a bounded
// task queue and a dedicated worker pool, and workers drain same-stage tasks
// in batches. Operator drive loops are resumable (see opTask), so a task
// blocked on a page exchange yields its worker instead of occupying it —
// the property that makes bounded pools deadlock-free here.
//
// A StagePool may be shared by many concurrent pipelines.
type StagePool struct {
	cfg StagePoolConfig

	mu     sync.Mutex // guards stages, ready lists, closed
	stages map[string]*poolStage
	closed bool

	stopped chan struct{}
	wg      sync.WaitGroup
}

// poolStage is one operator stage: bounded submission queue, ready list of
// woken continuations, worker pool, and monitor.
type poolStage struct {
	pool  *StagePool
	name  string
	stats *metrics.StageStats

	submit chan *opTask  // new tasks; bounded for back-pressure
	notify chan struct{} // pings sleeping workers about ready-list pushes
	space  chan struct{} // pings blocked submitters after a submit dequeue

	// Guarded by pool.mu.
	ready  []*opTask // woken continuations, served before submit
	target int       // desired worker count
	alive  int       // current worker count
}

// NewStagePool starts an empty pool; stages spin up lazily as operators are
// scheduled onto them.
func NewStagePool(cfg StagePoolConfig) *StagePool {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 4
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

// stageLocked returns (creating if needed) the pool for a stage class.
// Callers hold p.mu.
func (p *StagePool) stageLocked(name string) *poolStage {
	ps, ok := p.stages[name]
	if !ok {
		ps = &poolStage{
			pool:   p,
			name:   name,
			stats:  metrics.NewStageStats(name),
			submit: make(chan *opTask, p.cfg.QueueDepth),
			notify: make(chan struct{}, 1),
			space:  make(chan struct{}, 1),
			target: p.cfg.Workers,
		}
		p.stages[name] = ps
		for ps.alive < ps.target {
			ps.alive++
			p.wg.Add(1)
			go ps.worker()
		}
	}
	return ps
}

// Prestart creates the pools — and parks the workers — for the given stage
// classes before any query runs. Lazily spawned workers are hostage to
// scheduler fairness at their first activation: a brand-new goroutine enters
// the run queue cold, and on a single-CPU runtime a channel-handoff chain
// between already-running goroutines (a closed-loop writer ping-ponging with
// the front-end stage workers) can starve it until the next GC pause —
// observed as a multi-hundred-millisecond time-to-first-row spike on the
// first analytic query. A pre-started worker parks on its queue during
// engine construction instead, so the first query's tasks wake it by channel
// send exactly like every later query's.
func (p *StagePool) Prestart(classes ...string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	for _, c := range classes {
		p.stageLocked(c)
	}
}

// schedule admits a newly launched task to its stage queue, blocking while
// the queue is full (back-pressure on the launching pipeline). After Close the
// task degrades to a dedicated goroutine so pipelines never strand. Sends
// into the submit queue only happen under p.mu with the pool open, so Close
// can drain the queue once and know nothing arrives later.
func (p *StagePool) schedule(t *opTask) {
	enqueued := false
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			if enqueued {
				// Compensate the arrival we recorded before falling back.
				p.stage(StageClass(t.stage)).stats.OnDequeue()
			}
			go t.run()
			return
		}
		ps := p.stageLocked(StageClass(t.stage))
		if !enqueued {
			enqueued = true
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

// stage returns an existing stage pool or nil.
func (p *StagePool) stage(name string) *poolStage {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stages[name]
}

// ready re-enqueues a woken continuation. Ready tasks bypass the bounded
// submit queue — a waker must never block.
func (p *StagePool) ready(t *opTask) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		go t.run()
		return
	}
	ps := p.stageLocked(StageClass(t.stage))
	ps.ready = append(ps.ready, t)
	p.mu.Unlock()
	ps.stats.OnEnqueue()
	select {
	case ps.notify <- struct{}{}:
	default:
	}
}

// worker is one stage thread: take a task, run it until it completes or
// parks, then batch-drain more same-stage tasks while the working set is
// hot.
func (ps *poolStage) worker() {
	defer ps.pool.wg.Done()
	for {
		t := ps.take()
		if t == nil {
			return
		}
		ps.run(t)
		for n := 1; n < ps.pool.cfg.Batch; n++ {
			next := ps.tryTake()
			if next == nil {
				break
			}
			ps.run(next)
		}
	}
}

func (ps *poolStage) run(t *opTask) {
	ps.stats.OnDequeue()
	start := time.Now()
	t.run()
	ps.stats.OnService(time.Since(start))
}

// take blocks for the next task. It returns nil when the worker should
// exit: the stage shrank below its worker count, or the pool stopped and
// the queues are drained.
func (ps *poolStage) take() *opTask {
	p := ps.pool
	for {
		p.mu.Lock()
		if ps.alive > ps.target {
			ps.alive--
			p.mu.Unlock()
			// Forward the shrink nudge so sibling workers re-check too.
			select {
			case ps.notify <- struct{}{}:
			default:
			}
			return nil
		}
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
func (ps *poolStage) tryTake() *opTask {
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

// Resize sets the worker target for one stage (class labels and full
// "fscan:table" labels both address the class pool), spawning or retiring
// workers. The self-tuner drives it from observed queue lengths (§4.4a).
func (p *StagePool) Resize(stage string, workers int) {
	if workers < 1 {
		workers = 1
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	ps := p.stageLocked(StageClass(stage))
	ps.target = workers
	for ps.alive < ps.target {
		ps.alive++
		p.wg.Add(1)
		go ps.worker()
	}
	p.mu.Unlock()
	// Nudge a sleeper so a shrink takes effect promptly.
	select {
	case ps.notify <- struct{}{}:
	default:
	}
}

// Workers reports the current worker target for a stage, 0 if the stage has
// not been created yet.
func (p *StagePool) Workers(stage string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ps, ok := p.stages[StageClass(stage)]; ok {
		return ps.target
	}
	return 0
}

// Snapshot returns each exec stage's monitor (queue length, service counts,
// worker pool size), sorted by stage name.
func (p *StagePool) Snapshot() []metrics.StageSnapshot {
	p.mu.Lock()
	type entry struct {
		ps      *poolStage
		workers int
	}
	entries := make([]entry, 0, len(p.stages))
	for _, ps := range p.stages {
		entries = append(entries, entry{ps, ps.target})
	}
	p.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].ps.name < entries[j].ps.name })
	out := make([]metrics.StageSnapshot, len(entries))
	for i, e := range entries {
		out[i] = e.ps.stats.Snapshot()
		out[i].Workers = e.workers
	}
	return out
}

// Close stops the pool. Workers drain queued tasks before exiting, and any
// task that becomes runnable afterwards (or arrives late) runs on a plain
// goroutine, so in-flight pipelines always complete. Close is idempotent.
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
	var rest []*opTask
	for _, ps := range p.stages {
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
		go t.run()
	}
}
