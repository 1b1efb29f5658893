// Package server is stagedbd's network front end: a TCP listener speaking
// the wire protocol over the embedded engine's streaming API, with the
// paper's missing outermost stage — admission control — in front of parse.
//
// The design follows the staged philosophy at the process boundary:
//
//   - Admission is a real stage with its own counters (the "admission"
//     pseudo-stage in Stages): per-tenant connection and in-flight-query
//     quotas, plus queue-depth load shedding fed by the engine's own
//     execute-stage queue. Excess load is rejected with a typed retryable
//     error before any parse work happens, instead of queueing unboundedly.
//   - Results stream one wire frame per pooled exchange page, written as
//     each page arrives. The server never buffers pages for a slow client:
//     a blocked conn.Write simply stops pulling from the root exchange,
//     whose bounded buffer parks the execute-stage producers via the
//     page-recycle protocol. A materialized response (Exec) is framed into
//     one per-session buffer and leaves in a single write — in 64 KB pieces
//     when it is larger.
//   - Each session is isolated: a panic in one query's session goroutine
//     answers that query with an error frame and keeps both the session and
//     the process alive.
//   - Shutdown drains: stop accepting, reject new queries with ErrDraining,
//     let in-flight queries finish under a deadline, then hard-cancel. The
//     caller closes the DB afterwards (final checkpoint, clean WAL close).
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stagedb"
	"stagedb/internal/metrics"
)

// Options configures a Server. The zero value listens on an ephemeral port
// with moderate quotas.
type Options struct {
	// Addr is the TCP listen address ("" = 127.0.0.1:0, an ephemeral port).
	Addr string
	// MaxConnsPerTenant bounds concurrent connections per tenant name
	// (0 = 64). Excess Hellos are refused with an admission error.
	MaxConnsPerTenant int
	// MaxInflightPerTenant bounds one tenant's concurrently executing
	// queries (0 = 16). Excess queries are shed, not queued.
	MaxInflightPerTenant int
	// MaxInflight bounds the server's total concurrently executing queries
	// (0 = 128) — the global overload backstop.
	MaxInflight int
	// ShedQueueDepth sheds new queries once the engine's execute-stage
	// queue is deeper than this (0 = 192; negative disables queue-depth
	// shedding). Parse and optimize are cheap, so a deep execute queue is
	// the first symptom of overload (§5.2) and the cheapest point to act.
	ShedQueueDepth int
	// QueryTimeout caps every query's execution time (0 = none). A client
	// deadline shorter than the cap wins.
	QueryTimeout time.Duration
	// WriteTimeout bounds each response write (0 = 30s). A client that
	// cannot accept one write within it is treated as dead: its query is
	// canceled and the session closed. Backpressure below this horizon is
	// free — a parked write parks the pipeline, not a buffer.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds the Hello exchange (0 = 10s).
	HandshakeTimeout time.Duration
	// DrainTimeout bounds Shutdown's wait for in-flight queries (0 = 15s);
	// past it, survivors are hard-canceled.
	DrainTimeout time.Duration
}

func (o Options) withDefaults() Options {
	def := func(v, d int) int {
		if v == 0 {
			return d
		}
		return v
	}
	defDur := func(v, d time.Duration) time.Duration {
		if v == 0 {
			return d
		}
		return v
	}
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	o.MaxConnsPerTenant = def(o.MaxConnsPerTenant, 64)
	o.MaxInflightPerTenant = def(o.MaxInflightPerTenant, 16)
	o.MaxInflight = def(o.MaxInflight, 128)
	o.ShedQueueDepth = def(o.ShedQueueDepth, 192)
	o.WriteTimeout = defDur(o.WriteTimeout, 30*time.Second)
	o.HandshakeTimeout = defDur(o.HandshakeTimeout, 10*time.Second)
	o.DrainTimeout = defDur(o.DrainTimeout, 15*time.Second)
	return o
}

// Server serves the wire protocol over one embedded DB.
type Server struct {
	db   *stagedb.DB
	opts Options
	ln   net.Listener

	// baseCtx parents every session context; canceling it is the hard stop.
	baseCtx  context.Context
	hardStop context.CancelFunc

	adm *admission

	mu       sync.Mutex
	sessions map[*session]struct{}

	drainFlag atomic.Bool
	wg        sync.WaitGroup // session worker + reader goroutines

	// testHookExec, when set (tests only), runs in the session goroutine
	// before each query executes — the seam for injecting panics.
	testHookExec func(sql string)
}

// New listens on opts.Addr and returns a server ready to Serve. ctx parents
// every session: canceling it is an immediate hard stop (Shutdown is the
// graceful path). The server uses db but does not own it — close it after
// Shutdown for the final checkpoint.
func New(ctx context.Context, db *stagedb.DB, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", opts.Addr, err)
	}
	base, cancel := context.WithCancel(ctx)
	s := &Server{
		db:       db,
		opts:     opts,
		ln:       ln,
		baseCtx:  base,
		hardStop: cancel,
		adm:      newAdmission(opts),
		sessions: make(map[*session]struct{}),
	}
	return s, nil
}

// Addr is the bound listen address (resolves the ephemeral port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve accepts connections until the listener closes (Shutdown) or a
// non-transient accept error occurs. It returns nil on orderly shutdown.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.drainFlag.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.startSession(conn)
	}
}

func (s *Server) startSession(conn net.Conn) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	sess := &session{
		srv:    s,
		conn:   conn,
		ctx:    ctx,
		cancel: cancel,
	}
	s.mu.Lock()
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	s.wg.Add(1)
	go sess.run()
}

func (s *Server) removeSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
}

// draining reports whether Shutdown has begun.
func (s *Server) draining() bool { return s.drainFlag.Load() }

// Shutdown drains the server: stop accepting, close idle sessions, refuse
// new queries with ErrDraining, and wait for in-flight queries to finish.
// Past DrainTimeout (or ctx expiry) the survivors are hard-canceled. It
// returns nil on a clean drain and an error describing a forced one. The
// caller still owns the DB: close it afterwards to checkpoint and release
// the WAL.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainFlag.Store(true)
	s.ln.Close()

	// Idle sessions have no query to finish: close them now. Busy sessions
	// keep running; their worker exits after the in-flight query completes
	// because draining is set.
	s.mu.Lock()
	for sess := range s.sessions {
		if !sess.busy.Load() {
			sess.cancel()
			sess.conn.SetDeadline(time.Now())
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(s.opts.DrainTimeout)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	case <-timer.C:
	}

	// Drain deadline passed: hard-cancel whatever is left. Canceling the
	// base context fails every in-flight query between pages; poking the
	// conn deadlines unblocks goroutines parked in Read or Write.
	s.mu.Lock()
	forced := len(s.sessions)
	for sess := range s.sessions {
		sess.conn.SetDeadline(time.Now())
	}
	s.mu.Unlock()
	s.hardStop()
	<-done
	if forced > 0 {
		return fmt.Errorf("server: drain deadline exceeded; hard-canceled %d session(s)", forced)
	}
	return nil
}

// Stages returns the embedded engine's per-stage snapshots with the
// server's admission pseudo-stage appended — the §5.2 monitoring surface
// extended to the process boundary.
func (s *Server) Stages() []metrics.StageSnapshot {
	out := s.db.Stages()
	out = append(out, metrics.StageSnapshot{Name: "admission", Counters: s.adm.counters.Snapshot()})
	return out
}

// AdmissionStats snapshots the admission stage's counters.
func (s *Server) AdmissionStats() map[string]int64 { return s.adm.counters.Snapshot() }

// SessionCount reports live sessions (tests and monitoring).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}
