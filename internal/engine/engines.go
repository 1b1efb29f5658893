package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"stagedb/internal/exec"
	"stagedb/internal/metrics"
	"stagedb/internal/plan"
	"stagedb/internal/sql"
	"stagedb/internal/value"
)

// Request is one unit of client work submitted to a front end: a single
// statement, a whole transaction script, or a prepared execution. Submitting
// a multi-statement transaction as one request matters on the worker-pool
// engine: if each statement were a separate request, every worker could end
// up blocked on a lock whose holder's COMMIT is stuck behind them in the
// queue — the thread-pool sizing hazard of §3.1.1.
type Request struct {
	Session *Session
	SQL     string
	// Script, when non-empty, is a transaction executed atomically by one
	// worker: on any error the open transaction is rolled back. SQL is
	// ignored when Script is set.
	Script []string

	// Ctx cancels the request and is required: the front end checks it
	// between stages (the request finishes with the context's error), and
	// executions in flight abort between pages, draining outstanding pages to
	// the pool.
	Ctx context.Context
	// Args bind the statement's `?` placeholders, substituted after parse
	// on the full itinerary. The stagedb package binds a statement with
	// arguments through the plan cache (Prepared.Bind) and submits it
	// pre-parsed instead; it sends Args only for a text whose generic plan
	// cannot be built.
	Args []value.Value
	// QueryOnly rejects non-SELECT statements with an error at execute
	// (QueryContext must not silently execute DML).
	QueryOnly bool
	// Stream delivers SELECT results as a Cursor instead of materializing
	// them into Result.
	Stream bool

	// Stmt, when set on submit, is a pre-parsed statement: the request skips
	// the parse stage and enters the pipeline at the execute stage (§4.1's
	// shorter itinerary for precompiled queries). The parse stage fills it in
	// otherwise.
	Stmt sql.Statement
	// Node, when set on submit, is the pre-bound (prepared, parameter-
	// substituted) SELECT plan; the optimize stage fills it in otherwise. A
	// pre-parsed SELECT without one is planned at execute.
	Node plan.Node
	// PrepareOnly parses and plans without executing: the packet routes
	// connect -> parse -> optimize -> disconnect, leaving Stmt and Node for
	// the caller to cache.
	PrepareOnly bool

	// Result (or Cursor, for streaming SELECTs) and Err are populated before
	// Done is closed.
	Result *Result
	Cursor *Cursor
	Err    error
	Done   chan struct{}
}

// prepareStmt parses SQL (unless pre-parsed) and substitutes placeholder
// arguments: the parse stage's work.
func (r *Request) prepareStmt() error {
	nparams := -1 // unknown until counted
	if r.Stmt == nil {
		stmt, n, err := sql.ParseCounted(r.SQL)
		if err != nil {
			return err
		}
		r.Stmt, nparams = stmt, n
	}
	// Prepared SELECTs keep placeholders in the shared AST; their arguments
	// were already substituted into the private plan (Node), so only
	// plan-less statements bind here. The placeholder count comes from the
	// parse when we did it; only pre-parsed statements (the rare prepared-DML
	// path) pay the AST walk.
	if !r.PrepareOnly && r.Node == nil {
		if nparams < 0 && len(r.Args) == 0 {
			nparams = sql.CountParams(r.Stmt)
		}
		if len(r.Args) > 0 || nparams > 0 {
			stmt, err := sql.BindParams(r.Stmt, r.Args)
			if err != nil {
				return err
			}
			r.Stmt = stmt
		}
	}
	return nil
}

// runScript executes a transaction script statement by statement on the
// request's session; on any error, the request's cancellation included, the
// open transaction is rolled back.
func (r *Request) runScript() {
	for _, q := range r.Script {
		stmt, err := sql.Parse(q)
		if err == nil {
			r.Result, err = r.Session.RunStmt(r.Ctx, stmt, nil)
		}
		if err != nil {
			r.Err = err
			r.Session.Abort()
			return
		}
	}
}

// dispatch executes the prepared statement on the request's session: a
// streaming SELECT hands back a Cursor, everything else runs to a Result.
// It enforces QueryOnly, which both itineraries reach here.
func (r *Request) dispatch() {
	sel, ok := r.Stmt.(*sql.Select)
	if !ok && r.QueryOnly {
		r.Err = fmt.Errorf("engine: QueryContext requires a SELECT statement, got %s; use ExecContext", r.Stmt)
		return
	}
	if ok && r.Stream {
		r.Cursor, r.Err = r.Session.StreamStmt(r.Ctx, sel, r.Node)
		return
	}
	r.Result, r.Err = r.Session.RunStmt(r.Ctx, r.Stmt, r.Node)
}

// Wait blocks until the request completes and returns its outcome.
func (r *Request) Wait() (*Result, error) {
	<-r.Done
	return r.Result, r.Err
}

// ErrClosed reports work submitted to a front end after Close.
var ErrClosed = errors.New("engine: front end closed")

// Staged is a front end on one exec.StagePool. NewStaged builds the paper's
// design: connect -> parse -> optimize -> execute -> disconnect stages
// connected by queues, with the execution engine's operators owned by
// fscan/iscan/sort/join/aggr stages (§4.3). NewThreaded builds the §3.1
// baseline on the same runtime: each itinerary collapsed into one stage.
type Staged struct {
	db       *DB
	pool     *exec.StagePool
	inflight atomic.Int64
	closed   atomic.Bool

	// The itineraries of §4.1: full requests visit every query stage,
	// prepare-only requests stop before execute, and prepared executions —
	// already parsed and planned — enter at execute.
	full, prepareOnly, prepared []queryStage

	// shared is the fscan stage's scan-synchronization registry; nil when
	// disabled.
	shared *exec.SharedScans

	// stream runs a SELECT plan: on pool's operator stages, or on the
	// Volcano driver for the threaded baseline. The execute stage installs
	// it on every session it serves.
	stream StreamFunc
}

// StagedConfig sizes the staged front end.
type StagedConfig struct {
	// Workers per query stage (connect/parse/optimize/execute/disconnect);
	// 0 = 4 for execute and 2 for the others. §4.4a tunes them individually.
	Workers int
	// ExecWorkers is the worker count of each execution-engine stage pool
	// (fscan/iscan/filter/sort/join/aggr/exec); 0 = the default, 2.
	ExecWorkers int
	// ExecQueueDepth bounds each exec-stage task queue (0 = 64).
	ExecQueueDepth int
	// DisableSharedScans turns off fscan scan synchronization. It is on by
	// default on the staged engine: a sequential scan starting while another
	// scan of its table is in flight begins at that scan's position and
	// wraps, so the two share pages through the buffer pool.
	DisableSharedScans bool
}

// queryQueueDepth bounds each query stage's queue. It must exceed the
// admission controller's execute-queue shedding threshold (192 by default)
// for that threshold to be reachable.
const queryQueueDepth = 256

// operatorStages are the execution engine's stage classes (plan.StageOf).
var operatorStages = []string{"fscan", "iscan", "filter", "sort", "join", "aggr", "exec"}

// queryStage is one front-end stage: its name on the pool and the stage's
// server code.
type queryStage struct {
	name  string
	serve func(*Request) error
}

// packet carries a request along its route of query stages (§4.1.1: the
// Request is the packet's backpack, where parse fills Stmt and optimize
// fills Node). It is served at route[0] and then submits itself to the next
// stage, as an operator task re-enters its own.
type packet struct {
	s     *Staged
	req   *Request
	route []queryStage
}

// Stage implements exec.Task.
func (p *packet) Stage() string { return p.route[0].name }

// Run implements exec.Task: serve the current stage, then move on. A stage
// that fails finishes the request at once, and so does any stage reached
// after Close, with ErrClosed.
func (p *packet) Run() {
	st := p.route[0]
	p.route = p.route[1:]
	err := ErrClosed
	if !p.s.closed.Load() {
		err = st.serve(p.req)
	}
	if err != nil {
		p.s.finish(p.req, err)
		return
	}
	if len(p.route) > 0 {
		p.s.pool.Submit(p)
	}
}

// newFront starts a front end on a fresh pool with the three itineraries
// over the five query stages; the constructor decides which stages the pool
// gets.
func newFront(db *DB, cfg exec.StagePoolConfig) *Staged {
	s := &Staged{db: db, pool: exec.NewStagePool(cfg)}
	connect := queryStage{"connect", s.connect}
	parse := queryStage{"parse", s.parse}
	optimize := queryStage{"optimize", s.optimize}
	execute := queryStage{"execute", s.execute}
	disconnect := queryStage{"disconnect", s.disconnect}
	s.full = []queryStage{connect, parse, optimize, execute, disconnect}
	s.prepareOnly = []queryStage{connect, parse, optimize, disconnect}
	s.prepared = []queryStage{execute, disconnect}
	return s
}

// NewStaged starts the staged front end.
func NewStaged(db *DB, cfg StagedConfig) *Staged {
	s := newFront(db, exec.StagePoolConfig{
		Workers:    cfg.ExecWorkers,
		QueueDepth: cfg.ExecQueueDepth,
	})
	s.stream = s.runStaged // bound once: installing it per request allocates nothing
	if !cfg.DisableSharedScans {
		s.shared = exec.NewSharedScans(0, nil)
	}
	for _, st := range s.full {
		workers := 2
		if st.name == "execute" {
			workers = 4
		}
		if cfg.Workers > 0 {
			workers = cfg.Workers
		}
		s.pool.AddStage(st.name, workers, queryQueueDepth)
	}
	// Park every operator stage's workers now, not at first use (see
	// StagePool.AddStage).
	for _, name := range operatorStages {
		s.pool.AddStage(name, 0, 0)
	}
	return s
}

// NewThreaded starts the conventional worker-pool front end of §3.1 on the
// same runtime: every itinerary collapses into one visit to a single execute
// stage of workers (0 = 8), where one worker carries the request from
// connect to disconnect. SELECTs run on the Volcano driver; there are no
// operator stages and no shared scans.
func NewThreaded(db *DB, workers int) *Staged {
	if workers <= 0 {
		workers = 8
	}
	s := newFront(db, exec.StagePoolConfig{})
	s.stream = db.runVolcano
	s.full, s.prepareOnly, s.prepared = whole(s.full), whole(s.prepareOnly), whole(s.prepared)
	s.pool.AddStage("execute", workers, queryQueueDepth)
	return s
}

// whole collapses an itinerary into one execute stage serving each of its
// stages back to back, stopping at the first that fails.
func whole(route []queryStage) []queryStage {
	return []queryStage{{"execute", func(req *Request) error {
		for _, st := range route {
			if err := st.serve(req); err != nil {
				return err
			}
		}
		return nil
	}}}
}

// Submit routes a request through the staged pipeline along its itinerary
// (§4.1), blocking while its first stage's queue is full. It refuses a
// request without a session or a context, and after Close it returns
// ErrClosed; a refused request is not accepted.
func (s *Staged) Submit(req *Request) error {
	if req.Session == nil {
		return fmt.Errorf("engine: request without session")
	}
	if req.Ctx == nil {
		return fmt.Errorf("engine: request without context")
	}
	if s.closed.Load() {
		return ErrClosed
	}
	route := s.full
	switch {
	case req.PrepareOnly:
		route = s.prepareOnly
	case req.Stmt != nil && len(req.Script) == 0:
		route = s.prepared
	}
	s.inflight.Add(1)
	s.pool.Submit(&packet{s: s, req: req, route: route})
	return nil
}

// finish completes a request: it records err unless a stage already set
// one, releases the client and leaves the in-flight count.
func (s *Staged) finish(req *Request, err error) {
	if err != nil && req.Err == nil {
		req.Err = err
	}
	close(req.Done)
	s.inflight.Add(-1)
}

// InFlight counts requests submitted but not yet completed — packets
// anywhere in the pipeline, including streaming SELECTs whose cursor has
// been handed out but whose disconnect stage has not run. It is the
// admission controller's primary load signal.
func (s *Staged) InFlight() int64 { return s.inflight.Load() }

// ExecuteQueueLen reports the execute stage's current queue depth, the
// paper's §5.2 bottleneck indicator: parse and optimize are cheap, so a
// deep execute queue is the first symptom of overload and the admission
// controller's shedding trigger.
func (s *Staged) ExecuteQueueLen() int { return s.pool.QueueLen("execute") }

// Prepare parses and plans sqlText along the prepare-only itinerary (the
// parse and optimize stages; the one stage of the threaded baseline),
// caching the result keyed by the statement text. A cache hit skips the
// pipeline entirely; subsequent executions of the returned entry enter at
// the execute stage. DDL and ANALYZE invalidate cached entries
// (re-preparing is transparent to Stmt holders). A canceled ctx fails a
// cache miss between stages and caches nothing.
func (s *Staged) Prepare(ctx context.Context, sess *Session, sqlText string) (*Prepared, error) {
	ver := s.db.schemaVer.Load()
	if e, ok := s.db.plans.get(sqlText, ver); ok {
		return e, nil
	}
	req := &Request{Session: sess, SQL: sqlText, Ctx: ctx, PrepareOnly: true, Done: make(chan struct{})}
	if err := s.Submit(req); err != nil {
		return nil, err
	}
	if _, err := req.Wait(); err != nil {
		return nil, err
	}
	p := &Prepared{SQL: sqlText, Stmt: req.Stmt, Node: req.Node,
		NumParams: sql.CountParams(req.Stmt), version: ver,
		probe: genericServes(req.Stmt, req.Node)}
	s.db.plans.put(p)
	return p, nil
}

// Close refuses new requests, then stops the stage pool: it waits for the
// stages' in-flight work, and every request that reaches a stage afterwards
// finishes with ErrClosed, so no client hangs.
func (s *Staged) Close() {
	s.closed.Store(true)
	s.pool.Close()
}

// Snapshot returns the per-stage monitors, query stages then the execution
// engine's stages (§5.2). When scan sharing is active, the fscan stage's
// snapshot carries the share hit/attach/wrap counters.
func (s *Staged) Snapshot() []metrics.StageSnapshot {
	out := s.pool.Snapshot()
	if s.shared != nil {
		for i := range out {
			if out[i].Name == "fscan" {
				out[i].Counters = s.shared.Counters()
				break
			}
		}
	}
	// The exchange-page pool's hit/miss/outstanding counters, the
	// prepared-statement cache's hit/miss/invalidation counters, and the
	// memory-bounded operators' spill counters ride along as pseudo-stages
	// so \stages surfaces them (§5.2 monitoring).
	out = append(out, metrics.StageSnapshot{Name: "pagepool", Counters: s.db.pages.Counters()})
	out = append(out, metrics.StageSnapshot{Name: "prepare", Counters: s.db.plans.Counters()})
	out = append(out, metrics.StageSnapshot{Name: "spill", Counters: s.db.spill.Counters()})
	out = append(out, metrics.StageSnapshot{Name: "mvcc", Counters: mvccCounters(s.db.mv.Stats())})
	if wal := s.db.WALCounters(); wal != nil {
		out = append(out, metrics.StageSnapshot{Name: "wal", Counters: wal})
	}
	return out
}

// ScanShares snapshots the fscan scan-sharing counters; zero when sharing
// is disabled.
func (s *Staged) ScanShares() exec.SharedScanStats {
	if s.shared == nil {
		return exec.SharedScanStats{}
	}
	return s.shared.Stats()
}

// ExecPool exposes the stage scheduler for monitoring.
func (s *Staged) ExecPool() *exec.StagePool { return s.pool }

// --- stage handlers ---

// connect starts the query's packet on its way (client state creation in
// the paper's connect stage).
func (s *Staged) connect(req *Request) error { return req.Ctx.Err() }

// parse runs the SQL front end (syntactic/semantic check of Figure 3),
// substitutes placeholder arguments, and enforces QueryOnly. Transaction
// scripts are parsed statement-by-statement inside execute.
func (s *Staged) parse(req *Request) error {
	if err := req.Ctx.Err(); err != nil {
		return err
	}
	if len(req.Script) > 0 {
		return nil
	}
	return req.prepareStmt()
}

// optimize plans SELECTs (other statements pass through: their "plans" are
// trivial and built inside execute). Prepared requests arrive with Node set
// and pass through untouched.
func (s *Staged) optimize(req *Request) error {
	if err := req.Ctx.Err(); err != nil {
		return err
	}
	if len(req.Script) > 0 || req.Node != nil {
		return nil
	}
	if sel, ok := req.Stmt.(*sql.Select); ok {
		node, err := plan.BindSelect(s.db.cat, sel, s.db.cfg.PlanOptions)
		if err != nil {
			return err
		}
		req.Node = node
	}
	return nil
}

// execute runs the statement. SELECT plans run on the staged execution
// engine: one task per operator, owned by its fscan/iscan/sort/join/aggr
// stage, with page-based dataflow (§4.1.2). Streaming SELECTs launch their
// pipeline and hand the client a cursor over the final exchange without
// occupying the stage worker; the cursor's Close (or a context cancel)
// abandons the pipeline and recycles its pages. A point probe
// (plan.PointProbe) is the exception: runStaged hands it to the Volcano
// driver, so it launches no pipeline. The statement's own error travels on
// the request to disconnect.
func (s *Staged) execute(req *Request) error {
	// Fairness valve for single-P runtimes: the stage-to-stage handoff chain
	// wakes exactly one goroutine before every park, so the scheduler's
	// direct-handoff slot is never empty and goroutines sitting in the local
	// run queue (a just-launched pipeline's stage workers) can starve until
	// the next GC pause — observed as a multi-hundred-millisecond
	// time-to-first-row for the first analytic query under closed-loop
	// writers. Yielding here, before this worker has woken its successor, is
	// the one point in the chain where the handoff slot is empty, so the
	// yield actually drains the queue.
	runtime.Gosched()
	if err := req.Ctx.Err(); err != nil {
		return err
	}
	req.Session.SetStreamRunner(s.stream)
	if len(req.Script) > 0 {
		req.runScript()
	} else {
		req.dispatch()
	}
	return nil
}

// runStaged is the staged engine's StreamFunc: it launches the plan on the
// execution-stage pools and returns the cursor over its final exchange. A
// point probe reads at most one row; §4.1 matches a stage's granularity to
// its work, and an operator pipeline — a task on iscan, an exchange, a
// wakeup — costs several times the lookup itself. It runs on the Volcano
// driver instead, opened by the execute worker and pulled by the client,
// as the threaded baseline runs every plan.
func (s *Staged) runStaged(ctx context.Context, node plan.Node, vis exec.VisibleFunc) (exec.Cursor, error) {
	if plan.PointProbe(node) {
		return s.db.runVolcano(ctx, node, vis)
	}
	return exec.RunStagedCursor(node, s.db, s.pool, exec.StagedOptions{
		PageRows:    s.db.cfg.PageRows,
		BufferPages: s.db.cfg.BufferPages,
		Shared:      s.shared,
		Pool:        s.db.pages,
		WorkMem:     s.db.WorkMem(),
		TempDir:     s.db.cfg.TempDir,
		Spill:       s.db.spill,
		Visible:     vis,
		Ctx:         ctx,
	})
}

// disconnect finishes the request: deliver results, destroy client state.
func (s *Staged) disconnect(req *Request) error {
	s.finish(req, nil)
	return nil
}
