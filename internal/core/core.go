// Package core implements the paper's primary contribution: the staged
// server runtime of §4.1. A database server is decomposed into
// self-contained Stages connected by bounded Queues. Work travels in
// Packets, each carrying a query's state and private data (its "backpack").
// A stage owns its code and data, runs its own worker pool, and yields
// control cooperatively at stage boundaries; queues exert back-pressure by
// blocking producers when full (§4.1.1).
//
// Of the paper's two levels of scheduling (§4.1) this package implements the
// local one: workers draining their stage's queue in batches, exploiting the
// stage's affinity to the cache. Global scheduling across stages is left to
// the Go runtime, which owns the underlying threads; the gated cohort/staged
// policies are studied where their timing can be controlled, in
// internal/queuesim.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"stagedb/internal/metrics"
)

// Packet is the unit of work exchanged between stages (§4.1.1: class packet
// with clientInfo, queryInfo, routeInfo). In a shared-memory system the
// backpack holds pointers, not copies.
type Packet struct {
	// Client identifies the submitting client/connection.
	Client int
	// Route is the remaining stage itinerary; Forward sends the packet to
	// Route[0]. Precompiled queries route connect->execute directly by
	// starting with a shorter route (§4.1).
	Route []string
	// Backpack is the query's state and private data.
	Backpack any
	// Err records a failure that stages downstream may inspect.
	Err error
}

// Verdict is what a stage handler decides about a packet (§4.1.1: destroy
// or forward).
type Verdict int

// Handler verdicts.
const (
	// Done destroys the packet; the query is finished at this stage.
	Done Verdict = iota
	// Forward sends the packet to the next stage on its route.
	Forward
)

// Handler is the stage-specific server code invoked by dequeue.
type Handler func(pkt *Packet) (Verdict, error)

// ErrStopped is returned by Enqueue after the server shut down.
var ErrStopped = errors.New("core: server stopped")

// StageConfig parameterizes one stage.
type StageConfig struct {
	// Name identifies the stage (and its queue) for routing.
	Name string
	// Workers is the thread pool size (§4.1.1: more than one worker masks
	// I/O within the stage). Default 1.
	Workers int
	// QueueCap bounds the stage queue; enqueueing into a full queue blocks
	// the producer (back-pressure flow control). Default 128.
	QueueCap int
	// Batch is the local scheduling knob: a worker drains up to Batch
	// packets per activation, amortizing the stage's working-set load.
	// Default 1.
	Batch int
	// Handler is the stage's server code.
	Handler Handler
}

// Stage is an independent mini-server: queue, worker pool, statistics.
type Stage struct {
	cfg   StageConfig
	srv   *Server
	queue chan *Packet
	stats *metrics.StageStats
}

// Name returns the stage's routing name.
func (s *Stage) Name() string { return s.cfg.Name }

// Stats exposes the per-stage monitor (§5.2: each stage provides its own
// monitoring).
func (s *Stage) Stats() *metrics.StageStats { return s.stats }

// QueueLen reports packets waiting in the stage queue.
func (s *Stage) QueueLen() int { return len(s.queue) }

// Enqueue submits a packet to the stage, blocking while the queue is full
// (back-pressure: the producing stage thread freezes, the rest of the
// system keeps running). It fails with ErrStopped after shutdown. The read
// lock orders the send against Stop's final queue sweep: a send that races
// the stopped channel commits before the sweep runs, so the sweep always
// observes it and no packet is stranded in a dead queue.
func (s *Stage) Enqueue(pkt *Packet) error {
	s.srv.enqMu.RLock()
	defer s.srv.enqMu.RUnlock()
	select {
	case <-s.srv.stopped:
		return ErrStopped
	default:
	}
	select {
	case s.queue <- pkt:
		s.stats.OnEnqueue()
		return nil
	case <-s.srv.stopped:
		return ErrStopped
	}
}

// worker is the stage thread loop: dequeue, run stage code, route.
func (s *Stage) worker() {
	defer s.srv.wg.Done()
	for {
		select {
		case pkt := <-s.queue:
			s.process(pkt)
			// Local batching: drain up to Batch-1 more packets while the
			// stage's working set is hot.
			for drained := 1; drained < s.cfg.Batch; drained++ {
				select {
				case next := <-s.queue:
					s.process(next)
				default:
					drained = s.cfg.Batch
				}
			}
		case <-s.srv.stopped:
			return
		}
	}
}

func (s *Stage) process(pkt *Packet) {
	s.stats.OnDequeue()
	start := time.Now()
	verdict, err := s.cfg.Handler(pkt)
	s.stats.OnService(time.Since(start))
	if err != nil {
		pkt.Err = err
		// Failed packets drain to the final stage on their route so the
		// client learns the outcome; with no route left they are destroyed.
		if len(pkt.Route) > 0 {
			last := pkt.Route[len(pkt.Route)-1]
			pkt.Route = nil
			if s.srv.forwardTo(last, pkt) {
				return
			}
		}
		s.srv.finish(pkt)
		return
	}
	switch verdict {
	case Done:
		s.srv.finish(pkt)
	case Forward:
		if len(pkt.Route) == 0 {
			s.srv.finish(pkt)
			return
		}
		next := pkt.Route[0]
		pkt.Route = pkt.Route[1:]
		if !s.srv.forwardTo(next, pkt) {
			pkt.Err = fmt.Errorf("core: unknown stage %q", next)
			s.srv.finish(pkt)
		}
	}
}

// Server is a set of stages with routing. Create with NewServer, add stages,
// then Start.
type Server struct {
	mu      sync.Mutex
	stages  map[string]*Stage
	order   []string
	stopped chan struct{}
	wg      sync.WaitGroup
	started bool
	// enqMu orders in-flight Enqueues (read side) against Stop's sweep of
	// the stage queues (write side); see Stage.Enqueue.
	enqMu sync.RWMutex

	finished func(*Packet)
}

// NewServer returns an empty staged server.
func NewServer() *Server {
	return &Server{
		stages:  make(map[string]*Stage),
		stopped: make(chan struct{}),
	}
}

// OnFinish registers a callback invoked when a packet is destroyed (its
// query finished or failed). Call before Start.
func (s *Server) OnFinish(fn func(*Packet)) { s.finished = fn }

// AddStage registers a stage. It panics on duplicate names or after Start —
// stage topology is fixed at startup, matching the paper's design where
// stages are the unit of system composition.
func (s *Server) AddStage(cfg StageConfig) *Stage {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("core: AddStage after Start")
	}
	if cfg.Name == "" || cfg.Handler == nil {
		panic("core: stage needs a name and a handler")
	}
	if _, dup := s.stages[cfg.Name]; dup {
		panic(fmt.Sprintf("core: duplicate stage %q", cfg.Name))
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 128
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 1
	}
	st := &Stage{
		cfg:   cfg,
		srv:   s,
		queue: make(chan *Packet, cfg.QueueCap),
		stats: metrics.NewStageStats(cfg.Name),
	}
	s.stages[cfg.Name] = st
	s.order = append(s.order, cfg.Name)
	return st
}

// Stage returns a registered stage by name, or nil.
func (s *Server) Stage(name string) *Stage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stages[name]
}

// Start launches every stage's worker pool.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for _, name := range s.order {
		st := s.stages[name]
		for i := 0; i < st.cfg.Workers; i++ {
			s.wg.Add(1)
			go st.worker()
		}
	}
}

// Submit routes a packet to the first stage of its route.
func (s *Server) Submit(pkt *Packet) error {
	if len(pkt.Route) == 0 {
		return fmt.Errorf("core: packet has no route")
	}
	first := pkt.Route[0]
	pkt.Route = pkt.Route[1:]
	st := s.Stage(first)
	if st == nil {
		return fmt.Errorf("core: unknown stage %q", first)
	}
	return st.Enqueue(pkt)
}

// forwardTo enqueues pkt at the named stage; false when unknown. An enqueue
// refused by shutdown fails the packet and delivers it to the finish hook,
// so a client waiting on the packet observes the error instead of hanging
// on a silently dropped query.
func (s *Server) forwardTo(name string, pkt *Packet) bool {
	st := s.Stage(name)
	if st == nil {
		return false
	}
	if err := st.Enqueue(pkt); err != nil {
		if pkt.Err == nil {
			pkt.Err = err
		}
		s.finish(pkt)
	}
	return true
}

func (s *Server) finish(pkt *Packet) {
	if s.finished != nil {
		s.finished(pkt)
	}
}

// Stop shuts the server down. Packets still queued when the workers exit are
// failed with ErrStopped and delivered to the finish hook, so no client hangs
// on a query that raced shutdown.
func (s *Server) Stop() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	select {
	case <-s.stopped:
		s.mu.Unlock()
		return
	default:
	}
	close(s.stopped)
	stages := make([]*Stage, 0, len(s.order))
	for _, name := range s.order {
		stages = append(stages, s.stages[name])
	}
	s.mu.Unlock()
	s.wg.Wait()
	// Wait out in-flight Enqueues, then sweep: afterwards every Enqueue
	// fails its stopped check before touching a queue.
	s.enqMu.Lock()
	defer s.enqMu.Unlock()
	for _, st := range stages {
		for {
			select {
			case pkt := <-st.queue:
				st.stats.OnDequeue()
				if pkt.Err == nil {
					pkt.Err = ErrStopped
				}
				s.finish(pkt)
				continue
			default:
			}
			break
		}
	}
}

// Snapshot returns per-stage statistics in registration order (§5.2 easy
// monitoring).
func (s *Server) Snapshot() []metrics.StageSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]metrics.StageSnapshot, 0, len(s.order))
	for _, name := range s.order {
		st := s.stages[name]
		snap := st.stats.Snapshot()
		snap.Workers = st.cfg.Workers
		out = append(out, snap)
	}
	return out
}
