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
	// PageRows is the executor's rows-per-page exchange unit (§4.4c).
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
	// CheckpointBytes triggers a background checkpoint when the log grows
	// past it (0 = 8 MiB).
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

	// ckptMu quiesces page mutations while a fuzzy checkpoint snapshots the
	// engine: DML and rollback hold it shared for the duration of one
	// operation (after their table locks are acquired — the hold is short),
	// the checkpoint holds it exclusively.
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
		return func(xmin, xmax uint64) bool { return xmax == 0 }
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

// MVCC exposes the version manager (tests and tools).
func (db *DB) MVCC() *mvcc.Manager { return db.mv }

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

// Exec parses and executes one statement.
func (s *Session) Exec(sqlText string) (*Result, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	return s.ExecStmt(stmt)
}

// ExecStmt executes a parsed statement.
func (s *Session) ExecStmt(stmt sql.Statement) (*Result, error) {
	//stagedbvet:ignore ctxflow ExecStmt is the context-free entry point; RunStmt is the threaded form.
	return s.RunStmt(context.Background(), stmt, nil)
}

// RunStmt executes a parsed statement with a context checked between result
// pages. node, when non-nil, is a pre-bound SELECT plan (the prepared path)
// executed instead of re-planning stmt.
func (s *Session) RunStmt(ctx context.Context, stmt sql.Statement, node plan.Node) (*Result, error) {
	switch stmt.(type) {
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
	}

	// Auto-commit wrapper for single statements.
	id := s.current
	auto := !s.inTxn
	if auto {
		id = s.db.begin()
	}
	res, err := s.db.execInTxn(ctx, id, stmt, node, s.streamFn)
	if auto {
		if err != nil {
			s.db.rollback(id)
		} else if cerr := s.db.commit(id); cerr != nil {
			return nil, cerr
		}
	} else if errors.Is(err, txn.ErrDeadlock) || errors.Is(err, mvcc.ErrSerializationFailure) {
		// Deadlock victims and first-committer-wins losers are rolled back
		// whole: their snapshot is stale, so retrying inside the same
		// transaction could never succeed.
		s.db.rollback(id)
		s.inTxn = false
	}
	return res, err
}

// StreamStmt runs a SELECT as a streaming cursor: result pages flow to the
// caller as the execution produces them, and the cursor's Close abandons
// whatever has not been read. Outside an explicit transaction the statement
// runs in its own transaction whose locks are held until Close — the query
// stays covered while the engine reads pages on its behalf.
func (s *Session) StreamStmt(ctx context.Context, sel *sql.Select, node plan.Node) (*Cursor, error) {
	id := s.current
	auto := !s.inTxn
	if auto {
		id = s.db.begin()
	}
	cur, err := s.db.queryCursor(ctx, id, sel, node, s.streamFn)
	if err != nil {
		if auto {
			s.db.rollback(id)
		} else if errors.Is(err, txn.ErrDeadlock) || errors.Is(err, mvcc.ErrSerializationFailure) {
			s.db.rollback(id)
			s.inTxn = false
		}
		return nil, err
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

// execInTxn dispatches one statement inside transaction id.
func (db *DB) execInTxn(ctx context.Context, id txn.ID, stmt sql.Statement, node plan.Node, stream StreamFunc) (*Result, error) {
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
	case *sql.Select:
		// The materialized form drains the same cursor a streaming client
		// reads; the transaction's finish stays with the caller (RunStmt).
		cur, err := db.queryCursor(ctx, id, x, node, stream)
		if err != nil {
			return nil, err
		}
		rows, err := exec.Drain(cur.src)
		if err != nil {
			return nil, err
		}
		return &Result{Columns: cur.cols, Rows: rows}, nil
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
	tbl, err := db.cat.Create(stmt.Name, catalog.Schema{Columns: cols})
	if err != nil {
		return nil, err
	}
	h := storage.NewHeap(db.pool)
	db.installHeapHooks(stmt.Name, h)
	db.mu.Lock()
	db.heaps[stmt.Name] = h
	db.mu.Unlock()
	if pk := tbl.Schema.PrimaryKeyIndex(); pk >= 0 {
		name := "pk_" + stmt.Name
		if _, err := db.cat.AddIndex(stmt.Name, name, tbl.Schema.Columns[pk].Name, true); err != nil {
			return nil, err
		}
		db.mu.Lock()
		db.indexes[name] = storage.NewBTree()
		db.mu.Unlock()
	}
	if err := db.logCreateTable(id, tbl); err != nil {
		return nil, err
	}
	db.invalidatePlans()
	return &Result{}, nil
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
	bt, err := buildIndex(tbl, h, ix.ColIdx)
	if err != nil {
		// A partial index must not be published, nor one with no B-tree.
		db.cat.RemoveIndex(stmt.Table, stmt.Name)
		return nil, err
	}
	db.mu.Lock()
	db.indexes[stmt.Name] = bt
	db.mu.Unlock()
	if err := db.logCreateIndex(id, ix); err != nil {
		return nil, err
	}
	db.invalidatePlans()
	return &Result{}, nil
}

// buildIndex indexes column col of every version in h.
func buildIndex(tbl *catalog.Table, h *storage.Heap, col int) (*storage.BTree, error) {
	bt := storage.NewBTree()
	var scanErr error
	if err := h.Scan(func(rid storage.RID, rec []byte) bool {
		// Index every version, dead ones included: a reader at an old
		// snapshot must find superseded versions through the index. Vacuum
		// removes the entries together with the versions.
		row, err := decodeVersioned(tbl.Schema, rec)
		if err != nil {
			scanErr = err
			return false
		}
		bt.Insert(row[col], rid)
		return true
	}); err != nil {
		return nil, err
	}
	return bt, scanErr
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
	for _, ix := range tbl.Indexes {
		db.mu.Lock()
		delete(db.indexes, ix.Name)
		db.mu.Unlock()
	}
	if err := db.cat.Drop(stmt.Name); err != nil {
		return nil, err
	}
	db.mu.Lock()
	delete(db.heaps, stmt.Name)
	db.mu.Unlock()
	if err := db.logDropTable(id, stmt.Name, h.PageIDs()); err != nil {
		return nil, err
	}
	db.invalidatePlans()
	return &Result{}, nil
}

// --- DML ---

func (db *DB) insert(ctx context.Context, id txn.ID, stmt *sql.Insert) (*Result, error) {
	tbl, err := db.cat.Get(stmt.Table)
	if err != nil {
		return nil, err
	}
	if err := db.tm.Locks.Lock(ctx, id, "table:"+stmt.Table, txn.Exclusive); err != nil {
		return nil, err
	}
	db.ckptMu.RLock()
	defer db.ckptMu.RUnlock()
	h, err := db.HeapOf(tbl)
	if err != nil {
		return nil, err
	}
	colIdx := make([]int, len(stmt.Columns))
	for i, name := range stmt.Columns {
		ci := tbl.Schema.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("engine: table %s has no column %s", stmt.Table, name)
		}
		colIdx[i] = ci
	}
	var affected int64
	for _, exprRow := range stmt.Rows {
		row := make(value.Row, len(tbl.Schema.Columns))
		for i := range row {
			row[i] = value.NewNull()
		}
		if len(stmt.Columns) == 0 {
			if len(exprRow) != len(row) {
				return nil, fmt.Errorf("engine: INSERT arity mismatch (%d values, %d columns)", len(exprRow), len(row))
			}
			for i, e := range exprRow {
				v, err := evalConstExpr(e)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
		} else {
			if len(exprRow) != len(stmt.Columns) {
				return nil, fmt.Errorf("engine: INSERT arity mismatch")
			}
			for i, e := range exprRow {
				v, err := evalConstExpr(e)
				if err != nil {
					return nil, err
				}
				row[colIdx[i]] = v
			}
		}
		norm, err := tbl.Schema.Validate(row)
		if err != nil {
			return nil, err
		}
		if err := db.insertRow(id, tbl, h, norm); err != nil {
			return nil, err
		}
		affected++
	}
	return &Result{Affected: affected}, nil
}

// insertRow encodes, stores, indexes, and logs one row as a new version
// stamped (xmin=id, xmax=0). The WAL record is written while the heap page
// is still pinned (the heap reverts the page change if logging fails), so a
// dirty page never reaches disk carrying a row the log does not know about.
func (db *DB) insertRow(id txn.ID, tbl *catalog.Table, h *storage.Heap, row value.Row) error {
	if pk := tbl.Schema.PrimaryKeyIndex(); pk >= 0 {
		if ixMeta := tbl.IndexOn(tbl.Schema.Columns[pk].Name); ixMeta != nil && ixMeta.Unique {
			if bt, err := db.IndexOf(ixMeta); err == nil {
				if err := db.checkPKFree(id, tbl, h, bt, row[pk]); err != nil {
					return err
				}
			}
		}
	}
	payload, err := storage.EncodeRow(tbl.Schema, row)
	if err != nil {
		return err
	}
	rec := mvcc.NewVersion(uint64(id), payload)
	rid, err := h.InsertLogged(rec, func(rid storage.RID) (uint64, error) {
		return db.tm.LogOp(txn.Record{Txn: id, Kind: txn.RecInsert, Table: tbl.Name, RID: rid, After: rec})
	})
	if err != nil {
		return err
	}
	for _, ixMeta := range tbl.Indexes {
		bt, err := db.IndexOf(ixMeta)
		if err != nil {
			return err
		}
		bt.Insert(row[ixMeta.ColIdx], rid)
	}
	return nil
}

// checkPKFree enforces primary-key uniqueness against the latest state.
// Under the table's exclusive lock every version stamp from another
// transaction is decided (committed, or aborted-and-undone), so each index
// hit resolves cleanly: a dead version (xmax set) never conflicts, a live
// version visible to our snapshot (or our own) is a duplicate, and a live
// version committed after our snapshot began is a first-committer-wins
// conflict — our snapshot cannot prove the key free, so the insert fails
// retryably instead of silently double-inserting.
func (db *DB) checkPKFree(id txn.ID, tbl *catalog.Table, h *storage.Heap, bt *storage.BTree, key value.Value) error {
	snap := db.mv.SnapshotOf(uint64(id))
	for _, rid := range bt.Search(key) {
		rec, ok, err := h.GetIf(rid)
		if err != nil {
			return err
		}
		if !ok {
			continue // slot already vacuumed
		}
		xmin, xmax, err := storage.VersionOf(rec)
		if err != nil {
			return err
		}
		if xmax != 0 {
			continue // deleted or superseded: dead in the latest state
		}
		if xmin == uint64(id) {
			return fmt.Errorf("engine: duplicate primary key %s in %s", key, tbl.Name)
		}
		ts, committed := db.mv.CommittedTS(xmin)
		if !committed {
			continue // aborted leftover; cannot be active under our X lock
		}
		if snap != nil && ts > snap.TS {
			db.mv.Conflict()
			return fmt.Errorf("engine: primary key %s in %s inserted by concurrent txn %d: %w",
				key, tbl.Name, xmin, mvcc.ErrSerializationFailure)
		}
		return fmt.Errorf("engine: duplicate primary key %s in %s", key, tbl.Name)
	}
	return nil
}

// mvTarget is one visible version selected for superseding by an UPDATE or
// DELETE: its location, decoded payload, and the full versioned record (the
// before-image of the xmax stamp).
type mvTarget struct {
	rid storage.RID
	row value.Row
	rec []byte
}

// collectTargets scans the heap for versions visible to transaction id's
// snapshot that match pred. A visible match that already carries a deleter
// stamp is a first-committer-wins conflict: under the table's exclusive
// lock that deleter must have committed, and it did so after our snapshot
// began (otherwise the version would be invisible) — so the statement fails
// with ErrSerializationFailure instead of silently overwriting.
//
// The walk is predicate-first: each record costs a version-header read and a
// decode of only the columns pred reads, into one reused probe row; the
// visibility check, the full decode and the record copy are paid by matches
// alone. A predicate that fails to evaluate fails the statement only on a
// version the snapshot sees — an aborted or not-yet-visible version's values
// are none of the statement's business.
//
// The heap callback only collects (mutation under the scan latch is
// forbidden); callers apply their writes to the returned slice.
func (db *DB) collectTargets(id txn.ID, tbl *catalog.Table, h *storage.Heap, pred plan.Expr) ([]mvTarget, error) {
	snap := db.mv.SnapshotOf(uint64(id))
	if snap == nil {
		return nil, fmt.Errorf("engine: transaction %d has no snapshot", id)
	}
	w := &targetWalk{mv: db.mv, snap: snap, tbl: tbl}
	if pred != nil {
		width := len(tbl.Schema.Columns)
		w.match = plan.CompilePredicate(pred)
		w.cols = plan.ExprCols(pred, width)
		w.probe = make(value.Row, width)
	}
	if err := h.Scan(w.visit); err != nil {
		return nil, err
	}
	if w.err != nil {
		return nil, w.err
	}
	return w.targets, nil
}

// targetWalk is one collectTargets heap walk: the statement's snapshot, its
// compiled predicate (nil: every visible version matches) with the columns
// it reads and the probe row they are decoded into, and what the walk found.
type targetWalk struct {
	mv    *mvcc.Manager
	snap  *mvcc.Snapshot
	tbl   *catalog.Table
	match plan.CompiledPredicate
	cols  []bool
	probe value.Row

	targets []mvTarget
	err     error
}

// visit examines one heap record; it returns false to stop the walk, with
// w.err set.
//
//stagedb:hot
func (w *targetWalk) visit(rid storage.RID, rec []byte) bool {
	xmin, xmax, err := storage.VersionOf(rec)
	if err != nil {
		w.err = err
		return false
	}
	if w.match != nil {
		ok, err := w.matches(rec)
		if err != nil {
			if w.mv.Visible(w.snap, xmin, xmax) {
				w.err = err
				return false
			}
			return true
		}
		if !ok {
			return true
		}
	}
	if !w.mv.Visible(w.snap, xmin, xmax) {
		return true
	}
	row, err := decodeVersioned(w.tbl.Schema, rec)
	if err != nil {
		w.err = err
		return false
	}
	if xmax != 0 {
		w.mv.Conflict()
		w.err = errSuperseded(rid, w.tbl.Name, xmax)
		return false
	}
	cp := make([]byte, len(rec))
	copy(cp, rec)
	w.targets = append(w.targets, mvTarget{rid: rid, row: row, rec: cp})
	return true
}

// matches decodes the predicate's columns of the versioned record rec into
// the probe row and evaluates the predicate on it.
//
//stagedb:hot
func (w *targetWalk) matches(rec []byte) (bool, error) {
	payload, err := storage.PayloadOf(rec)
	if err != nil {
		return false, err
	}
	if err := storage.DecodeRowInto(w.tbl.Schema, payload, w.cols, w.probe); err != nil {
		return false, err
	}
	return w.match(w.probe)
}

// errSuperseded reports a first-committer-wins conflict on the version at
// rid, kept out of line so the per-record walk holds no fmt call.
func errSuperseded(rid storage.RID, table string, xmax uint64) error {
	return fmt.Errorf("engine: row %v of %s superseded by concurrent txn %d: %w",
		rid, table, xmax, mvcc.ErrSerializationFailure)
}

// supersede stamps transaction id as the deleter of the version at rid. The
// before and after images differ only in the 8-byte xmax field of the
// version header, so the logged update is always in place; both images
// carry the full record so undo and recovery restore it exactly.
func (db *DB) supersede(id txn.ID, tbl *catalog.Table, h *storage.Heap, rid storage.RID, oldRec []byte) error {
	dead, err := mvcc.Supersede(oldRec, uint64(id))
	if err != nil {
		return err
	}
	inPlace, err := h.UpdateLogged(rid, dead, func(rid storage.RID) (uint64, error) {
		return db.tm.LogOp(txn.Record{Txn: id, Kind: txn.RecUpdate, Table: tbl.Name,
			RID: rid, Before: oldRec, After: dead})
	})
	if err != nil {
		return err
	}
	if !inPlace {
		return errStampMoved(rid, tbl.Name)
	}
	return nil
}

// errStampMoved reports an xmax stamp, or its undo, that did not stay in
// place.
func errStampMoved(rid storage.RID, table string) error {
	return fmt.Errorf("engine: xmax stamp moved record %v of %s (same-length update must stay in place)", rid, table)
}

// update implements UPDATE as supersede-plus-insert: each target's current
// version gets this transaction stamped as its deleter (in place — readers
// at older snapshots keep seeing it), and a fresh version with the new
// values is inserted alongside. Index entries for the old version remain
// until vacuum reclaims it, so index readers at old snapshots still reach
// it; only the new version gains new entries.
func (db *DB) update(ctx context.Context, id txn.ID, stmt *sql.Update) (*Result, error) {
	tbl, err := db.cat.Get(stmt.Table)
	if err != nil {
		return nil, err
	}
	if err := db.tm.Locks.Lock(ctx, id, "table:"+stmt.Table, txn.Exclusive); err != nil {
		return nil, err
	}
	db.ckptMu.RLock()
	defer db.ckptMu.RUnlock()
	h, err := db.HeapOf(tbl)
	if err != nil {
		return nil, err
	}
	var pred plan.Expr
	if stmt.Where != nil {
		pred, err = plan.BindTableExpr(tbl, stmt.Where)
		if err != nil {
			return nil, err
		}
	}
	sets := make([]struct {
		col  int
		expr plan.Expr
	}, len(stmt.Sets))
	for i, a := range stmt.Sets {
		ci := tbl.Schema.ColumnIndex(a.Column)
		if ci < 0 {
			return nil, fmt.Errorf("engine: table %s has no column %s", stmt.Table, a.Column)
		}
		e, err := plan.BindTableExpr(tbl, a.Value)
		if err != nil {
			return nil, err
		}
		sets[i].col, sets[i].expr = ci, e
	}

	targets, err := db.collectTargets(id, tbl, h, pred)
	if err != nil {
		return nil, err
	}

	var affected int64
	for _, tg := range targets {
		newRow := tg.row.Clone()
		for _, set := range sets {
			v, err := set.expr.Eval(tg.row)
			if err != nil {
				return nil, err
			}
			newRow[set.col] = v
		}
		norm, err := tbl.Schema.Validate(newRow)
		if err != nil {
			return nil, err
		}
		payload, err := storage.EncodeRow(tbl.Schema, norm)
		if err != nil {
			return nil, err
		}
		if err := db.supersede(id, tbl, h, tg.rid, tg.rec); err != nil {
			return nil, err
		}
		newRec := mvcc.NewVersion(uint64(id), payload)
		newRID, err := h.InsertLogged(newRec, func(rid storage.RID) (uint64, error) {
			return db.tm.LogOp(txn.Record{Txn: id, Kind: txn.RecInsert, Table: tbl.Name,
				RID: rid, After: newRec})
		})
		if err != nil {
			return nil, err
		}
		for _, ixMeta := range tbl.Indexes {
			bt, err := db.IndexOf(ixMeta)
			if err != nil {
				return nil, err
			}
			bt.Insert(norm[ixMeta.ColIdx], newRID)
		}
		affected++
	}
	return &Result{Affected: affected}, nil
}

// delete implements DELETE as an xmax stamp: the version stays in the heap
// (readers at older snapshots keep seeing it) and its index entries stay in
// place; vacuum reclaims both once no snapshot can see the version.
func (db *DB) delete(ctx context.Context, id txn.ID, stmt *sql.Delete) (*Result, error) {
	tbl, err := db.cat.Get(stmt.Table)
	if err != nil {
		return nil, err
	}
	if err := db.tm.Locks.Lock(ctx, id, "table:"+stmt.Table, txn.Exclusive); err != nil {
		return nil, err
	}
	db.ckptMu.RLock()
	defer db.ckptMu.RUnlock()
	h, err := db.HeapOf(tbl)
	if err != nil {
		return nil, err
	}
	var pred plan.Expr
	if stmt.Where != nil {
		pred, err = plan.BindTableExpr(tbl, stmt.Where)
		if err != nil {
			return nil, err
		}
	}
	targets, err := db.collectTargets(id, tbl, h, pred)
	if err != nil {
		return nil, err
	}
	var affected int64
	for _, tg := range targets {
		if err := db.supersede(id, tbl, h, tg.rid, tg.rec); err != nil {
			return nil, err
		}
		affected++
	}
	return &Result{Affected: affected}, nil
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
// arranges it on the cursor's Close, RunStmt after execInTxn drained it.
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

// --- rollback / recovery ---

// rollback aborts a transaction and applies its undo records, writing a
// compensation log record (CLR) for every page operation the undo performs
// — so a crash mid-rollback replays the completed part of the undo instead
// of redoing the aborted work. The txn's locks stay held until the undo is
// fully applied (FinishAbort releases them).
func (db *DB) rollback(id txn.ID) error {
	// The exclusion must cover PrepareAbort through FinishAbort: a fuzzy
	// checkpoint between them would snapshot the txn as neither active nor
	// undone, and recovery would lose the remaining undo.
	db.ckptMu.RLock()
	defer db.ckptMu.RUnlock()
	// Stamp aborted before undo starts: from here no snapshot sees the
	// transaction's versions, so readers never observe a half-undone txn.
	db.mv.Abort(uint64(id))
	snap := db.mv.SnapshotOf(uint64(id))
	undo, err := db.tm.PrepareAbort(id)
	if err != nil {
		db.mv.End(snap)
		return err
	}
	for _, rec := range undo {
		if err := db.undoOne(rec); err != nil {
			db.tm.FinishAbort(id)
			// Undo incomplete: keep the aborted status entry unprunable (no
			// AbortDone) so surviving stamps stay invisible.
			db.mv.End(snap)
			return err
		}
	}
	err = db.tm.FinishAbort(id)
	if len(undo) == 0 {
		// No version was ever stamped with the id: nothing consults the entry.
		db.mv.Forget(uint64(id))
	} else {
		// Undo complete: no heap record references the id any more, so the
		// status entry becomes prunable once concurrent snapshots end.
		db.mv.AbortDone(uint64(id))
	}
	db.mv.End(snap)
	return err
}

func (db *DB) undoOne(rec txn.Record) error {
	tbl, err := db.cat.Get(rec.Table)
	if err != nil {
		// Table dropped after the op; nothing to undo into.
		return nil
	}
	h, err := db.HeapOf(tbl)
	if err != nil {
		return err
	}
	switch rec.Kind {
	case txn.RecInsert:
		row, err := decodeVersioned(tbl.Schema, rec.After)
		if err != nil {
			return err
		}
		if err := h.DeleteLogged(rec.RID, func(rid storage.RID) (uint64, error) {
			return db.tm.AppendCLR(txn.Record{Txn: rec.Txn, Kind: txn.RecDelete, Table: rec.Table,
				RID: rid, Before: rec.After, UndoOf: rec.LSN})
		}); err != nil {
			return err
		}
		for _, ixMeta := range tbl.Indexes {
			bt, err := db.IndexOf(ixMeta)
			if err != nil {
				return err
			}
			bt.Delete(row[ixMeta.ColIdx], rec.RID)
		}
	case txn.RecDelete:
		row, err := decodeVersioned(tbl.Schema, rec.Before)
		if err != nil {
			return err
		}
		rid, err := h.InsertLogged(rec.Before, func(rid storage.RID) (uint64, error) {
			return db.tm.AppendCLR(txn.Record{Txn: rec.Txn, Kind: txn.RecInsert, Table: rec.Table,
				RID: rid, After: rec.Before, UndoOf: rec.LSN})
		})
		if err != nil {
			return err
		}
		for _, ixMeta := range tbl.Indexes {
			bt, err := db.IndexOf(ixMeta)
			if err != nil {
				return err
			}
			bt.Insert(row[ixMeta.ColIdx], rid)
		}
	case txn.RecUpdate:
		// The one update the engine logs is supersede's xmax stamp: the
		// before-image has the same length and payload, so it restores in
		// place and no index key changes.
		inPlace, err := h.UpdateLogged(rec.RID, rec.Before, func(rid storage.RID) (uint64, error) {
			return db.tm.AppendCLR(txn.Record{Txn: rec.Txn, Kind: txn.RecUpdate, Table: rec.Table,
				RID: rid, Before: rec.After, After: rec.Before, UndoOf: rec.LSN})
		})
		if err != nil {
			return err
		}
		if !inPlace {
			return errStampMoved(rec.RID, rec.Table)
		}
	}
	return nil
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
	var scanErr error
	if err := h.Scan(func(_ storage.RID, rec []byte) bool {
		_, xmax, err := storage.VersionOf(rec)
		if err != nil {
			scanErr = err
			return false
		}
		if xmax != 0 {
			// Superseded or deleted version: statistics describe the latest
			// state, not the version history.
			return true
		}
		row, err := decodeVersioned(tbl.Schema, rec)
		if err != nil {
			scanErr = err
			return false
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
		return true
	}); err != nil {
		return err
	}
	if scanErr != nil {
		return scanErr
	}
	for i := range stats.Columns {
		stats.Columns[i].Distinct = int64(len(distinct[i]))
	}
	// Fresh statistics change what the right plan is; cached plans go stale.
	db.invalidatePlans()
	return db.cat.UpdateStats(table, stats)
}

// evalConstExpr evaluates an INSERT value expression (literals and
// arithmetic over literals).
func evalConstExpr(e sql.Expr) (value.Value, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return x.Val, nil
	case *sql.Unary:
		v, err := evalConstExpr(x.E)
		if err != nil {
			return value.Value{}, err
		}
		if x.Op == "-" {
			return value.Arith('-', value.NewInt(0), v)
		}
		return value.Value{}, fmt.Errorf("engine: %s not allowed in VALUES", x.Op)
	case *sql.Binary:
		l, err := evalConstExpr(x.L)
		if err != nil {
			return value.Value{}, err
		}
		r, err := evalConstExpr(x.R)
		if err != nil {
			return value.Value{}, err
		}
		switch x.Op {
		case "+", "-", "*", "/", "%":
			return value.Arith(x.Op[0], l, r)
		}
		return value.Value{}, fmt.Errorf("engine: operator %s not allowed in VALUES", x.Op)
	}
	return value.Value{}, fmt.Errorf("engine: VALUES requires constant expressions, got %T", e)
}
