// Package engine assembles the database: catalog, storage, transactions,
// planner and executor, behind a session-oriented SQL interface. One front
// end type, Staged, runs requests on the exec.StagePool in two shapes:
//
//   - NewStaged: the paper's §4.1 design — connect, parse, optimize, execute
//     and disconnect stages connected by queues; inside execute, operators
//     run on their owning execution-engine stages with page-based dataflow.
//   - NewThreaded: the conventional worker-pool model of §3.1 — the same
//     itineraries collapsed into one execute stage, whose worker carries a
//     query through every phase on the Volcano driver.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"stagedb/internal/catalog"
	"stagedb/internal/exec"
	"stagedb/internal/mvcc"
	"stagedb/internal/plan"
	"stagedb/internal/sql"
	"stagedb/internal/storage"
	"stagedb/internal/txn"
	"stagedb/internal/value"
	"stagedb/internal/vclock"
)

// Config sizes the database kernel.
type Config struct {
	// PoolFrames is the buffer-pool capacity in pages (default 1024).
	PoolFrames int
	// PageRows fixes the executor's rows per exchange page (§4.4c); 0 sizes
	// each operator's pages from its row width (exec.BuildConfig.PageRows).
	PageRows int
	// BufferPages bounds each staged-exchange buffer.
	BufferPages int
	// WorkMem is the per-query memory budget, in bytes, enforced by the
	// stateful operators (sort, hash aggregation, hash-join build): past it
	// they spill to temp-file runs/partitions instead of growing the heap.
	// 0 resolves through the STAGEDB_WORKMEM environment variable and then
	// exec.DefaultWorkMem.
	WorkMem int64
	// TempDir hosts spill files ("" = os.TempDir(), or DataDir/spill when a
	// DataDir is set).
	TempDir string
	// PlanOptions steer the optimizer.
	PlanOptions plan.Options

	// DataDir, when set, makes the database durable: page images live in
	// DataDir/data.stagedb, the write-ahead log in DataDir/wal.stagedb, and
	// OpenDB replays the log on startup. Empty means the seed's volatile
	// in-memory store.
	DataDir string
	// SyncEveryCommit disables group commit: each commit fsyncs the log on
	// its own (the benchmark baseline group commit is measured against).
	SyncEveryCommit bool
	// CheckpointBytes triggers a checkpoint, run by the commit that crosses
	// it, when the log has grown by it since the last checkpoint (0 = 8 MiB).
	CheckpointBytes int64
	// FS overrides the filesystem under the data file and log (fault
	// injection); nil means the real one.
	FS storage.FS
}

// Result is the outcome of one statement.
type Result struct {
	// Columns names the result columns of a SELECT (nil otherwise).
	Columns []string
	// Rows holds SELECT output.
	Rows []value.Row
	// Affected counts rows touched by DML.
	Affected int64
}

// DB is the database kernel: shared, thread-safe state behind both engines.
type DB struct {
	cfg    Config
	cat    *catalog.Catalog
	store  storage.PageStore
	fstore *storage.FileStore // non-nil in durable mode (== store)
	fsys   storage.FS         // non-nil in durable mode
	pool   *storage.Pool
	tm     *txn.Manager

	// mv is the MVCC manager: transaction-status table, open snapshots, and
	// the visibility rule. Readers consult it instead of taking table locks.
	mv *mvcc.Manager

	// ckptMu quiesces the log while a checkpoint snapshots the engine and
	// rotates: DML, DDL, vacuum, rollback and commit hold it shared for the
	// duration of one operation (after their table locks are acquired — the
	// hold is short; a commit's includes its group-commit wait), the
	// checkpoint holds it exclusively. ckptBusy admits one committer to run
	// a checkpoint; the others that see the budget crossed skip it rather
	// than queue on ckptMu behind it.
	ckptMu   sync.RWMutex
	ckptBusy atomic.Bool

	// Recovery outcome counters, surfaced through the wal pseudo-stage.
	recovRedo   atomic.Uint64 // records redone
	recovUndo   atomic.Uint64 // loser records undone
	recovTorn   atomic.Uint64 // torn log bytes truncated at open
	sweptSpill  atomic.Uint64 // orphaned spill files removed at open
	recovLosers atomic.Uint64 // in-flight txns rolled back at open
	sweptVers   atomic.Uint64 // dead versions swept while rebuilding indexes

	// pages recycles executor exchange pages across all queries of this
	// kernel (both the staged and the Volcano driver draw from it).
	pages *exec.PagePool

	// spill accumulates the memory-bounded operators' spill counters
	// (sort runs, agg/join grace partitions, file lifecycle) across both
	// drivers.
	spill *exec.SpillMetrics

	// workMem is the live per-query memory budget. It starts at
	// Config.WorkMem; SetWorkMem may change it while queries are in flight,
	// so reads go through the atomic.
	workMem atomic.Int64

	// plans caches prepared statements; schemaVer invalidates them on DDL
	// and ANALYZE.
	plans     *planCache
	schemaVer atomic.Uint64

	mu      sync.RWMutex
	heaps   map[string]*storage.Heap
	indexes map[string]*storage.BTree
}

// NewDB returns an empty volatile database over the simulated in-memory
// disk. Durable databases come from OpenDB with a Config.DataDir.
func NewDB(cfg Config) *DB {
	return newDBWith(cfg, storage.NewStore())
}

func newDBWith(cfg Config, store storage.PageStore) *DB {
	if cfg.PoolFrames <= 0 {
		cfg.PoolFrames = 1024
	}
	db := &DB{
		cfg:     cfg,
		cat:     catalog.New(),
		store:   store,
		pool:    storage.NewPool(store, cfg.PoolFrames),
		tm:      txn.NewManager(),
		mv:      mvcc.NewManager(vclock.NewOracle(0)),
		pages:   exec.NewPagePool(),
		spill:   &exec.SpillMetrics{},
		plans:   newPlanCache(),
		heaps:   make(map[string]*storage.Heap),
		indexes: make(map[string]*storage.BTree),
	}
	// Commit timestamps are stamped after the commit record is durable and
	// before the transaction's locks release, so any snapshot taken later
	// sees all of the transaction's versions or none. A transaction that
	// logged no data record stamped no version and leaves no status entry.
	db.tm.OnCommit = func(id txn.ID, wrote bool) {
		if wrote {
			db.mv.Commit(uint64(id))
		} else {
			db.mv.CommitReadOnly(uint64(id))
		}
	}
	db.workMem.Store(cfg.WorkMem)
	db.installLiveRowCount()
	return db
}

// begin starts a transaction and opens its MVCC snapshot. Every transaction
// of the engine — explicit, auto-commit, and system (vacuum) — goes through
// here so its reads are snapshot-consistent.
func (db *DB) begin() txn.ID {
	id := db.tm.Begin()
	db.mv.Begin(uint64(id))
	return id
}

// visibleFunc builds the executor's row-visibility predicate from the
// transaction's snapshot. A transaction without a snapshot (internal
// callers) reads the latest state: live versions only.
func (db *DB) visibleFunc(id txn.ID) exec.VisibleFunc {
	snap := db.mv.SnapshotOf(uint64(id))
	if snap == nil {
		return exec.LatestVersions
	}
	return func(xmin, xmax uint64) bool { return db.mv.Visible(snap, xmin, xmax) }
}

// decodeVersioned strips a heap record's version header and decodes the row
// payload.
func decodeVersioned(schema catalog.Schema, rec []byte) (value.Row, error) {
	payload, err := storage.PayloadOf(rec)
	if err != nil {
		return nil, err
	}
	return storage.DecodeRow(schema, payload, nil)
}

// installLiveRowCount gives the planner a cardinality fallback for tables
// that were never ANALYZEd: the heap's O(1) maintained live-record count
// (no page walk, no record decode — binds must stay cheap).
func (db *DB) installLiveRowCount() {
	if db.cfg.PlanOptions.LiveRowCount != nil {
		return
	}
	db.cfg.PlanOptions.LiveRowCount = func(table string) (int64, bool) {
		db.mu.RLock()
		h := db.heaps[table]
		db.mu.RUnlock()
		if h == nil {
			return 0, false
		}
		return h.LiveEstimate(), true
	}
}

// Catalog exposes the schema for planners and tools.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Store exposes the page store — the simulated in-memory disk, or the data
// file in durable mode (I/O counters for experiments and benchmarks).
func (db *DB) Store() storage.PageStore { return db.store }

// PagePool exposes the executor's exchange-page allocator (hit/miss/leak
// accounting for monitoring and the page-leak tests).
func (db *DB) PagePool() *exec.PagePool { return db.pages }

// PlanCacheStats snapshots the prepared-statement cache counters (also
// visible as the "prepare" pseudo-stage in staged snapshots).
func (db *DB) PlanCacheStats() PlanCacheStats { return db.plans.Stats() }

// SpillMetrics exposes the kernel's spill counters (sort runs, grace
// partitions, spill-file lifecycle), shared by every query of both drivers.
func (db *DB) SpillMetrics() *exec.SpillMetrics { return db.spill }

// SpillStats snapshots the spill counters.
func (db *DB) SpillStats() exec.SpillStats { return db.spill.Stats() }

// WorkMem reports the live per-query memory budget (0 = resolve defaults).
func (db *DB) WorkMem() int64 { return db.workMem.Load() }

// SetWorkMem changes the per-query memory budget for subsequently built
// executions (queries in flight keep the budget they started with).
func (db *DB) SetWorkMem(v int64) { db.workMem.Store(v) }

// buildConfig assembles the executor build parameters every query of this
// kernel runs under.
func (db *DB) buildConfig() exec.BuildConfig {
	return exec.BuildConfig{
		PageRows: db.cfg.PageRows,
		Pool:     db.pages,
		WorkMem:  db.workMem.Load(),
		TempDir:  db.cfg.TempDir,
		Spill:    db.spill,
	}
}

// invalidatePlans bumps the schema version, turning every cached plan into
// an invalidation on its next lookup. DDL and ANALYZE call it: both change
// what the right plan for a statement is.
func (db *DB) invalidatePlans() { db.schemaVer.Add(1) }

// SetPlanOptions changes the optimizer options (ablation benches force join
// algorithms or disable rewrites through this). The live row-count fallback
// is re-installed unless the caller supplied one.
func (db *DB) SetPlanOptions(opt plan.Options) {
	db.cfg.PlanOptions = opt
	db.installLiveRowCount()
}

// MVCCStats snapshots the MVCC counters: snapshots taken, commits, aborts,
// serialization conflicts, versions vacuumed, and the GC horizon.
func (db *DB) MVCCStats() mvcc.Stats { return db.mv.Stats() }

// HeapOf implements exec.Tables.
func (db *DB) HeapOf(t *catalog.Table) (*storage.Heap, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	h, ok := db.heaps[t.Name]
	if !ok {
		return nil, fmt.Errorf("engine: no heap for table %s", t.Name)
	}
	return h, nil
}

// IndexOf implements exec.Tables.
func (db *DB) IndexOf(ix *catalog.Index) (*storage.BTree, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	bt, ok := db.indexes[ix.Name]
	if !ok {
		return nil, fmt.Errorf("engine: no index %s", ix.Name)
	}
	return bt, nil
}

// StreamFunc drives a SELECT plan as a page cursor; the cursor's Close tears
// the execution down. vis is the calling transaction's snapshot-visibility
// predicate; the driver must install it on the scans it builds.
type StreamFunc func(ctx context.Context, node plan.Node, vis exec.VisibleFunc) (exec.Cursor, error)

// Session is one client connection. Sessions are not safe for concurrent
// use; each client drives its own.
type Session struct {
	db       *DB
	id       int
	current  txn.ID
	inTxn    bool
	streamFn StreamFunc // SELECT driver; every SELECT is delivered through its cursor
}

var sessionIDs struct {
	mu sync.Mutex
	n  int
}

// NewSession opens a session whose SELECTs run on the pull driver.
func (db *DB) NewSession() *Session {
	sessionIDs.mu.Lock()
	sessionIDs.n++
	id := sessionIDs.n
	sessionIDs.mu.Unlock()
	return &Session{db: db, id: id, streamFn: db.runVolcano}
}

// runVolcano is the Volcano (pull) driver's StreamFunc: it builds the plan's
// iterator tree, pulled by whoever reads the cursor.
func (db *DB) runVolcano(ctx context.Context, node plan.Node, vis exec.VisibleFunc) (exec.Cursor, error) {
	cfg := db.buildConfig()
	cfg.Visible = vis
	op, err := exec.BuildWith(node, db, cfg)
	if err != nil {
		return nil, err
	}
	return exec.NewCursor(ctx, op)
}

// SetStreamRunner overrides the SELECT driver (the staged engine installs
// exec.RunStagedCursor here).
func (s *Session) SetStreamRunner(fn StreamFunc) { s.streamFn = fn }

// ID returns the session's identifier.
func (s *Session) ID() int { return s.id }

// Abort rolls back the session's open transaction (if any) directly, without
// routing through the engine's stage queues. It exists for teardown paths: a
// disconnected client's locks must be released even when every execute
// worker is blocked waiting on those very locks — submitting the ROLLBACK as
// a request would queue it behind its own waiters and deadlock the stage.
// The caller must guarantee no request is in flight on the session.
func (s *Session) Abort() error {
	if !s.inTxn {
		return nil
	}
	s.inTxn = false
	return s.db.rollback(s.current)
}

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.inTxn }

// RunStmt executes a parsed statement with a context checked between result
// pages. node, when non-nil, is a pre-bound SELECT plan (the prepared path)
// executed instead of re-planning stmt. A SELECT is StreamStmt's cursor,
// drained.
func (s *Session) RunStmt(ctx context.Context, stmt sql.Statement, node plan.Node) (*Result, error) {
	switch x := stmt.(type) {
	case *sql.Begin:
		if s.inTxn {
			return nil, fmt.Errorf("engine: transaction already open")
		}
		s.current = s.db.begin()
		s.inTxn = true
		return &Result{}, nil
	case *sql.Commit:
		if !s.inTxn {
			return nil, fmt.Errorf("engine: no transaction open")
		}
		s.inTxn = false
		return &Result{}, s.db.commit(s.current)
	case *sql.Rollback:
		if !s.inTxn {
			return nil, fmt.Errorf("engine: no transaction open")
		}
		s.inTxn = false
		return &Result{}, s.db.rollback(s.current)
	case *sql.Select:
		cur, err := s.StreamStmt(ctx, x, node)
		if err != nil {
			return nil, err
		}
		rows, err := exec.Drain(cur)
		if err != nil {
			return nil, err
		}
		return &Result{Columns: cur.cols, Rows: rows}, nil
	}
	id, auto, mark := s.stmtTxn()
	res, err := s.db.execInTxn(ctx, id, stmt)
	if err != nil {
		return nil, s.stmtFailed(id, auto, mark, err)
	}
	if auto {
		if err := s.db.commit(id); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// StreamStmt runs a SELECT as a streaming cursor: result pages flow to the
// caller as the execution produces them, and the cursor's Close abandons
// whatever has not been read. Outside an explicit transaction the statement
// runs in its own transaction whose locks are held until Close — the query
// stays covered while the engine reads pages on its behalf.
func (s *Session) StreamStmt(ctx context.Context, sel *sql.Select, node plan.Node) (*Cursor, error) {
	id, auto, mark := s.stmtTxn()
	cur, err := s.db.queryCursor(ctx, id, sel, node, s.streamFn)
	if err != nil {
		return nil, s.stmtFailed(id, auto, mark, err)
	}
	if auto {
		db := s.db
		cur.finish = func(qerr error) error {
			if qerr != nil {
				return db.rollback(id)
			}
			return db.commit(id)
		}
	}
	return cur, nil
}

// stmtTxn returns the transaction a statement runs in: the session's open
// one, with the undo point the statement rolls back to if it fails (mark),
// or a fresh auto-commit transaction (auto).
func (s *Session) stmtTxn() (id txn.ID, auto bool, mark int) {
	if s.inTxn {
		return s.current, false, s.db.tm.UndoPoint(s.current)
	}
	return s.db.begin(), true, 0
}

// stmtFailed finishes a statement that failed with err and returns the
// error to report. An auto-commit transaction rolls back. So does an
// explicit one whose statement was a deadlock victim or lost
// first-committer-wins: its snapshot is stale, so retrying inside the same
// transaction could never succeed. Any other failure inside an explicit
// transaction undoes the statement alone, back to its undo point mark: the
// transaction stays open with its locks and its earlier writes. Should that
// undo fail, the whole transaction rolls back.
func (s *Session) stmtFailed(id txn.ID, auto bool, mark int, err error) error {
	switch {
	case auto:
		s.db.rollback(id)
	case errors.Is(err, txn.ErrDeadlock) || errors.Is(err, mvcc.ErrSerializationFailure):
		s.db.rollback(id)
		s.inTxn = false
	default:
		if uerr := s.db.undoStatement(id, mark); uerr != nil {
			s.db.rollback(id)
			s.inTxn = false
			return errors.Join(err, fmt.Errorf("engine: statement undo failed, transaction rolled back: %w", uerr))
		}
	}
	return err
}

// execInTxn dispatches one DDL or DML statement inside transaction id.
func (db *DB) execInTxn(ctx context.Context, id txn.ID, stmt sql.Statement) (*Result, error) {
	switch x := stmt.(type) {
	case *sql.CreateTable:
		return db.createTable(ctx, id, x)
	case *sql.CreateIndex:
		return db.createIndex(ctx, id, x)
	case *sql.DropTable:
		return db.dropTable(ctx, id, x)
	case *sql.Insert:
		return db.insert(ctx, id, x)
	case *sql.Update:
		return db.update(ctx, id, x)
	case *sql.Delete:
		return db.delete(ctx, id, x)
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
}

// --- DDL ---

func (db *DB) createTable(ctx context.Context, id txn.ID, stmt *sql.CreateTable) (*Result, error) {
	if err := db.tm.Locks.Lock(ctx, id, "catalog", txn.Exclusive); err != nil {
		return nil, err
	}
	db.ckptMu.RLock()
	defer db.ckptMu.RUnlock()
	cols := make([]catalog.Column, len(stmt.Columns))
	for i, c := range stmt.Columns {
		cols[i] = catalog.Column{Name: c.Name, Type: c.Type, PrimaryKey: c.PrimaryKey}
	}
	tbl, err := db.addTable(stmt.Name, cols, storage.NewHeap(db.pool))
	if err != nil {
		return nil, err
	}
	if pk := tbl.Schema.PrimaryKeyIndex(); pk >= 0 {
		if err := db.addIndex(stmt.Name, "pk_"+stmt.Name, tbl.Schema.Columns[pk].Name, true); err != nil {
			return nil, err
		}
	}
	if err := db.logCreateTable(id, tbl); err != nil {
		return nil, err
	}
	db.invalidatePlans()
	return &Result{}, nil
}

// addTable creates table name in the catalog and registers heap h for it,
// its page allocations logged. CREATE TABLE and recovery both add tables
// through here.
func (db *DB) addTable(name string, cols []catalog.Column, h *storage.Heap) (*catalog.Table, error) {
	tbl, err := db.cat.Create(name, catalog.Schema{Columns: cols})
	if err != nil {
		return nil, err
	}
	db.installHeapHooks(name, h)
	db.mu.Lock()
	db.heaps[name] = h
	db.mu.Unlock()
	return tbl, nil
}

// addIndex registers index name on table.column with an empty B-tree: the
// primary-key index of a new table, or a restored index that recovery fills
// from the heap.
func (db *DB) addIndex(table, name, column string, unique bool) error {
	if _, err := db.cat.AddIndex(table, name, column, unique); err != nil {
		return err
	}
	db.mu.Lock()
	db.indexes[name] = storage.NewBTree()
	db.mu.Unlock()
	return nil
}

// removeTable drops tbl from the catalog and unregisters its heap and
// indexes. DROP TABLE and its redo both remove tables through here.
func (db *DB) removeTable(tbl *catalog.Table) error {
	if err := db.cat.Drop(tbl.Name); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, ix := range tbl.Indexes {
		delete(db.indexes, ix.Name)
	}
	delete(db.heaps, tbl.Name)
	return nil
}

func (db *DB) createIndex(ctx context.Context, id txn.ID, stmt *sql.CreateIndex) (*Result, error) {
	if err := db.tm.Locks.Lock(ctx, id, "catalog", txn.Exclusive); err != nil {
		return nil, err
	}
	// Block writers for the duration of the build: the index must cover
	// every version that exists when it is published. Readers are unaffected
	// (they hold only ddl: locks) and keep scanning the heap directly.
	if err := db.tm.Locks.Lock(ctx, id, "table:"+stmt.Table, txn.Exclusive); err != nil {
		return nil, err
	}
	db.ckptMu.RLock()
	defer db.ckptMu.RUnlock()
	tbl, err := db.cat.Get(stmt.Table)
	if err != nil {
		return nil, err
	}
	h, err := db.HeapOf(tbl)
	if err != nil {
		return nil, err
	}
	ix, err := db.cat.AddIndex(stmt.Table, stmt.Name, stmt.Column, false)
	if err != nil {
		return nil, err
	}
	// Index every version, dead ones included: a reader at an old snapshot
	// must find superseded versions through the index. Vacuum removes the
	// entries together with the versions.
	if err := db.fillIndexes(tbl, h, []*catalog.Index{ix}, nil); err != nil {
		// A partial index must not be published, nor one with no B-tree.
		db.cat.RemoveIndex(stmt.Table, stmt.Name)
		return nil, err
	}
	if err := db.logCreateIndex(id, ix); err != nil {
		return nil, err
	}
	db.invalidatePlans()
	return &Result{}, nil
}

func (db *DB) dropTable(ctx context.Context, id txn.ID, stmt *sql.DropTable) (*Result, error) {
	if err := db.tm.Locks.Lock(ctx, id, "catalog", txn.Exclusive); err != nil {
		return nil, err
	}
	if err := db.tm.Locks.Lock(ctx, id, "table:"+stmt.Name, txn.Exclusive); err != nil {
		return nil, err
	}
	// Readers take no table locks under MVCC; the ddl: lock is the one
	// point where a drop waits for in-flight scans to finish.
	if err := db.tm.Locks.Lock(ctx, id, "ddl:"+stmt.Name, txn.Exclusive); err != nil {
		return nil, err
	}
	db.ckptMu.RLock()
	defer db.ckptMu.RUnlock()
	tbl, err := db.cat.Get(stmt.Name)
	if err != nil {
		return nil, err
	}
	h, err := db.HeapOf(tbl)
	if err != nil {
		return nil, err
	}
	if err := db.removeTable(tbl); err != nil {
		return nil, err
	}
	if err := db.logDropTable(id, stmt.Name, h.PageIDs()); err != nil {
		return nil, err
	}
	db.invalidatePlans()
	return &Result{}, nil
}

// --- SELECT ---

// lockQueryTables takes shared ddl: locks on every table the SELECT
// references, in sorted order. Under MVCC readers do not take table locks —
// snapshot visibility replaces them, so scans never block writers — but the
// ddl: lock keeps DROP TABLE from pulling the heap out from under an
// in-flight scan.
func (db *DB) lockQueryTables(ctx context.Context, id txn.ID, stmt *sql.Select) error {
	var tables []string
	for _, ref := range stmt.From {
		tables = append(tables, ref.Table)
	}
	for _, j := range stmt.Joins {
		tables = append(tables, j.Table.Table)
	}
	sort.Strings(tables)
	for _, t := range tables {
		if err := db.tm.Locks.Lock(ctx, id, "ddl:"+t, txn.Shared); err != nil {
			return err
		}
	}
	return nil
}

// queryCursor locks the SELECT's tables, plans it unless node is pre-bound,
// starts the execution and returns a cursor over its result pages without
// draining them. Transaction finish is the caller's: Session.StreamStmt
// arranges it on the cursor's Close.
func (db *DB) queryCursor(ctx context.Context, id txn.ID, stmt *sql.Select, node plan.Node, stream StreamFunc) (*Cursor, error) {
	if err := db.lockQueryTables(ctx, id, stmt); err != nil {
		return nil, err
	}
	if node == nil {
		var err error
		node, err = plan.BindSelect(db.cat, stmt, db.cfg.PlanOptions)
		if err != nil {
			return nil, err
		}
	}
	src, err := stream(ctx, node, db.visibleFunc(id))
	if err != nil {
		return nil, err
	}
	return &Cursor{cols: schemaColumns(node), src: src}, nil
}

func schemaColumns(node plan.Node) []string {
	schema := node.Schema()
	cols := make([]string, len(schema))
	for i, c := range schema {
		cols[i] = c.Name
	}
	return cols
}

// Cursor is a streaming SELECT result: pages arrive from the execution as
// the client asks for them, and Close ends the query — abandoning an
// unfinished execution the way a satisfied LIMIT does, recycling buffered
// pages, and committing (or rolling back) the statement's auto transaction
// so its table locks are released. Cursors are not safe for concurrent use.
type Cursor struct {
	cols   []string
	src    exec.Cursor
	finish func(qerr error) error // transaction finish; nil inside explicit txns
	closed bool
	err    error
}

// Columns names the result columns.
func (c *Cursor) Columns() []string { return c.cols }

// NextPage returns the next result page (ownership transfers to the caller;
// Release it after consuming its rows), or nil at end of stream.
func (c *Cursor) NextPage() (*exec.Page, error) {
	if c.closed {
		return nil, c.err
	}
	pg, err := c.src.NextPage()
	if err != nil && c.err == nil {
		c.err = err
	}
	return pg, err
}

// Close tears the execution down and finishes the statement's transaction.
// It is idempotent and returns the first error of the execution (a query
// failure, context cancellation, or a commit error).
func (c *Cursor) Close() error {
	if c.closed {
		return c.err
	}
	c.closed = true
	// Teardown first, transaction finish second: the execution must stop
	// touching heap pages before the query's table locks are released.
	if err := c.src.Close(); err != nil && c.err == nil {
		c.err = err
	}
	if c.finish != nil {
		if ferr := c.finish(c.err); ferr != nil && c.err == nil {
			c.err = ferr
		}
	}
	return c.err
}

// Err returns the first error observed by the cursor.
func (c *Cursor) Err() error { return c.err }

// Plan binds a SELECT for EXPLAIN-style inspection without executing it.
func (db *DB) Plan(stmt *sql.Select) (plan.Node, error) {
	return plan.BindSelect(db.cat, stmt, db.cfg.PlanOptions)
}

// Analyze refreshes a table's statistics by scanning it.
func (db *DB) Analyze(table string) error {
	tbl, err := db.cat.Get(table)
	if err != nil {
		return err
	}
	h, err := db.HeapOf(tbl)
	if err != nil {
		return err
	}
	stats := catalog.TableStats{Columns: make([]catalog.ColumnStats, len(tbl.Schema.Columns))}
	distinct := make([]map[uint64]bool, len(tbl.Schema.Columns))
	for i := range distinct {
		distinct[i] = make(map[uint64]bool)
	}
	if err := walkVersions(h, func(_ storage.RID, xmax uint64, rec []byte) error {
		if xmax != 0 {
			// Superseded or deleted version: statistics describe the latest
			// state, not the version history.
			return nil
		}
		row, err := decodeVersioned(tbl.Schema, rec)
		if err != nil {
			return err
		}
		stats.RowCount++
		for i, v := range row {
			if v.IsNull() {
				continue
			}
			distinct[i][v.Hash()] = true
			cs := &stats.Columns[i]
			if cs.Min.IsNull() {
				cs.Min, cs.Max = v, v
				continue
			}
			if c, err := value.Compare(v, cs.Min); err == nil && c < 0 {
				cs.Min = v
			}
			if c, err := value.Compare(v, cs.Max); err == nil && c > 0 {
				cs.Max = v
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for i := range stats.Columns {
		stats.Columns[i].Distinct = int64(len(distinct[i]))
	}
	// Fresh statistics change what the right plan is; cached plans go stale.
	db.invalidatePlans()
	return db.cat.UpdateStats(table, stats)
}
