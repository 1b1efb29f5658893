// Package stagedb is a staged relational database engine: a from-scratch Go
// reproduction of "A Case for Staged Database Systems" (Harizopoulos &
// Ailamaki, CIDR 2003).
//
// The engine decomposes query processing into self-contained stages —
// connect, parse, optimize, execute, disconnect, with the execution engine
// further staged into fscan/iscan/filter/sort/join/aggr — connected by
// bounded queues with back-pressure. All of them run on one stage runtime,
// where each stage has its own queue, workers and monitor (see Stages). The
// conventional worker-pool engine the paper argues against is included as a
// baseline on the same runtime: one stage whose worker carries a query
// through every phase.
//
// Quick start:
//
//	db, err := stagedb.Open(stagedb.Options{})
//	if err != nil { ... }
//	defer db.Close()
//	db.ExecContext(ctx, `CREATE TABLE t (id INT PRIMARY KEY, name TEXT)`)
//	db.ExecContext(ctx, `INSERT INTO t VALUES (1, 'ann')`)
//	rows, err := db.QueryContext(ctx, `SELECT name FROM t WHERE id = ?`, 1)
//
// Every call that runs SQL takes a context, which travels with the request
// through every stage: canceling it abandons the request between stages and
// stops an execution in flight between pages. SELECT results stream:
// QueryContext returns a Rows cursor fed page-at-a-time from the execute
// stage, while ExecContext materializes them. Prepare caches parsed+planned
// statements that re-enter the pipeline at the execute stage.
//
// The simulators and experiment harnesses behind the paper's figures live
// under internal/ and are driven by cmd/figures and the benchmarks in
// bench_test.go; the README's module layout says which package is which.
package stagedb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"stagedb/internal/engine"
	"stagedb/internal/exec"
	"stagedb/internal/metrics"
	"stagedb/internal/mvcc"
	"stagedb/internal/plan"
	"stagedb/internal/sql"
	"stagedb/internal/value"
)

// Mode selects the server architecture.
type Mode int

// Server architectures.
const (
	// Staged runs the paper's design: five top-level stages plus staged
	// relational operators (the default).
	Staged Mode = iota
	// Threaded runs the conventional worker-pool baseline of §3.1: one
	// execute stage whose workers each carry a query from connect to
	// disconnect, with Volcano-style operators and no shared scans.
	Threaded
)

// Options configures Open. The zero value is a usable staged engine.
type Options struct {
	// Mode selects staged (default) or threaded execution.
	Mode Mode
	// Workers sizes the threaded engine's one stage, or the worker pool of
	// each of the staged engine's five query stages (0 = 8 threaded; 4 for
	// execute and 2 for the other query stages). The execution-engine
	// stages take ExecWorkers.
	Workers int
	// PageRows is the rows-per-page unit of the staged execution engine's
	// dataflow (0 = 64). Paper §4.4(c) discusses tuning it.
	PageRows int
	// BufferPages bounds each inter-operator page buffer (0 = 4).
	BufferPages int
	// PoolFrames sizes the buffer pool in 8 KB pages (0 = 1024).
	PoolFrames int
	// WorkMem is the per-query memory budget, in bytes, of the stateful
	// operators: a sort past it spills sorted runs to temp files and merges
	// them back streaming; hash aggregation and the hash-join build side
	// past it partition grace-style and recurse per partition. ORDER BY +
	// LIMIT k never engages it — the planner fuses the pair into a TopN node
	// running a bounded k-heap. 0 resolves through the STAGEDB_WORKMEM
	// environment variable and then the 16 MB default; budgets below 64 KB
	// clamp up to it. See DB.SpillStats for the observable effects.
	WorkMem int
	// TempDir hosts spill files ("" = the system temp directory).
	TempDir string
	// ExecWorkers is the worker count of each execution-engine stage pool
	// on the staged engine (fscan/iscan/filter/sort/join/aggr/exec);
	// 0 = the default, 2. Each stage keeps its count for the database's
	// life.
	ExecWorkers int
	// ExecQueueDepth bounds each execution-stage task queue (0 = 64);
	// launching operators into a full queue blocks (back-pressure).
	ExecQueueDepth int
	// DisableSharedScans turns off the staged engine's synchronized scans.
	// By default a sequential scan starting while another scan of its table
	// is in flight begins at that scan's position and wraps around, so the
	// two read the same pages at about the same time through the buffer
	// pool. The Threaded (Volcano) baseline never synchronizes scans.
	DisableSharedScans bool
	// DataDir, when set, makes the database durable: page images live in a
	// checksummed data file under the directory and every transaction is
	// written ahead to an LSN-stamped redo/undo log. Open replays the log
	// (redoing committed history, undoing losers, truncating any torn tail)
	// and sweeps orphaned spill files. "" resolves through the
	// STAGEDB_DATADIR environment variable; if that is also empty the
	// database is in-memory as before.
	DataDir string
	// Durability selects the commit-flush policy when DataDir is set. The
	// zero value (DurabilityAuto) means group commit when a data directory
	// is configured and off otherwise. DurabilityGroup and DurabilitySync
	// require a data directory and fail Open without one.
	Durability Durability
	// CheckpointBytes triggers a background fuzzy checkpoint once the
	// write-ahead log outgrows it (0 = 8 MB). Durable mode only.
	CheckpointBytes int64
}

// Durability is the commit-flush policy of a durable database.
type Durability int

const (
	// DurabilityAuto derives the policy from DataDir: group commit when a
	// data directory is configured, off otherwise.
	DurabilityAuto Durability = iota
	// DurabilityOff keeps the database in-memory even if DataDir is set.
	DurabilityOff
	// DurabilityGroup batches concurrent commits into shared fsyncs: a
	// commit parks until the log is flushed through its LSN, and one
	// flusher goroutine amortizes the fsync over everyone waiting.
	DurabilityGroup
	// DurabilitySync fsyncs the log on every commit (the conventional
	// baseline; slower under concurrency, identical guarantees).
	DurabilitySync
)

// Row is one result row.
type Row = value.Row

// Value is one SQL value.
type Value = value.Value

// Result is the outcome of one statement.
type Result struct {
	// Columns names the output columns of a query.
	Columns []string
	// Rows holds query output.
	Rows []Row
	// Affected counts rows changed by DML.
	Affected int64
}

// DB is an open database handle with a default session. For concurrent
// clients, create one Conn per goroutine.
type DB struct {
	opts    Options
	kernel  *engine.DB
	front   *engine.Staged
	defConn *Conn
}

// Conn is one client connection (not safe for concurrent use).
type Conn struct {
	db   *DB
	sess *engine.Session
}

// validate rejects option values no engine configuration can honor.
func (o Options) validate() error {
	if o.Mode != Staged && o.Mode != Threaded {
		return fmt.Errorf("stagedb: unknown Mode %d", o.Mode)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Workers", o.Workers},
		{"PageRows", o.PageRows},
		{"BufferPages", o.BufferPages},
		{"PoolFrames", o.PoolFrames},
		{"WorkMem", o.WorkMem},
		{"ExecWorkers", o.ExecWorkers},
		{"ExecQueueDepth", o.ExecQueueDepth},
	} {
		if f.v < 0 {
			return fmt.Errorf("stagedb: Options.%s must not be negative (got %d)", f.name, f.v)
		}
	}
	if o.CheckpointBytes < 0 {
		return fmt.Errorf("stagedb: Options.CheckpointBytes must not be negative (got %d)", o.CheckpointBytes)
	}
	switch o.Durability {
	case DurabilityAuto, DurabilityOff, DurabilityGroup, DurabilitySync:
	default:
		return fmt.Errorf("stagedb: unknown Durability %d", o.Durability)
	}
	return nil
}

// resolveDataDir applies the STAGEDB_DATADIR fallback and checks the
// directory is usable before any engine state is built.
func (o Options) resolveDataDir() (string, error) {
	dir := o.DataDir
	if dir == "" {
		dir = os.Getenv("STAGEDB_DATADIR")
	}
	if o.Durability == DurabilityOff {
		return "", nil
	}
	if dir == "" {
		if o.Durability == DurabilityGroup || o.Durability == DurabilitySync {
			return "", fmt.Errorf("stagedb: Durability %d requires Options.DataDir (or STAGEDB_DATADIR)", o.Durability)
		}
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("stagedb: data dir %s: %w", dir, err)
	}
	// Probe writability now so a read-only mount fails Open with a clear
	// error instead of surfacing later as a poisoned log.
	probe := filepath.Join(dir, ".stagedb-probe")
	f, err := os.Create(probe)
	if err != nil {
		return "", fmt.Errorf("stagedb: data dir %s not writable: %w", dir, err)
	}
	f.Close()
	os.Remove(probe)
	return dir, nil
}

// Open creates a database with the selected architecture: in-memory by
// default, durable (file-backed pages plus a write-ahead log, recovered on
// open) when DataDir or STAGEDB_DATADIR names a directory. It fails on
// invalid Options, an unusable data directory, or a recovery error.
func Open(opts Options) (*DB, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	dataDir, err := opts.resolveDataDir()
	if err != nil {
		return nil, err
	}
	kernel, err := engine.OpenDB(engine.Config{
		PoolFrames:      opts.PoolFrames,
		PageRows:        opts.PageRows,
		BufferPages:     opts.BufferPages,
		WorkMem:         int64(opts.WorkMem),
		TempDir:         opts.TempDir,
		DataDir:         dataDir,
		SyncEveryCommit: opts.Durability == DurabilitySync,
		CheckpointBytes: opts.CheckpointBytes,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{opts: opts, kernel: kernel}
	if opts.Mode == Threaded {
		db.front = engine.NewThreaded(kernel, opts.Workers)
	} else {
		db.front = engine.NewStaged(kernel, engine.StagedConfig{
			Workers:            opts.Workers,
			ExecWorkers:        opts.ExecWorkers,
			ExecQueueDepth:     opts.ExecQueueDepth,
			DisableSharedScans: opts.DisableSharedScans,
		})
	}
	db.defConn = db.Conn()
	return db, nil
}

// Conn opens a new client connection.
func (db *DB) Conn() *Conn {
	return &Conn{db: db, sess: db.kernel.NewSession()}
}

// Close shuts the engine down. On a durable database it takes a final
// checkpoint and releases the data file and log; the returned error reports
// a failed flush (an in-memory database always returns nil).
func (db *DB) Close() error {
	db.front.Close()
	return db.kernel.Close()
}

// Checkpoint flushes the log and all dirty pages to the data file and, when
// no transactions are in flight, rotates the log down to a single checkpoint
// record. No-op on an in-memory database.
func (db *DB) Checkpoint() error { return db.kernel.Checkpoint() }

// Durable reports whether the database is backed by a data directory.
func (db *DB) Durable() bool { return db.kernel.Durable() }

// WALStats snapshots the write-ahead log and recovery counters (nil map on
// an in-memory database). The same counters appear as the "wal"
// pseudo-stage in Stages and the CLI \stages view: log appends, flushes and
// fsyncs, commit group sizes, rotations, and the last recovery's redo/undo
// record counts, truncated torn-tail bytes, and swept spill files.
func (db *DB) WALStats() map[string]int64 { return db.kernel.WALCounters() }

// ExecContext runs a statement on the default connection with cancellation.
func (db *DB) ExecContext(ctx context.Context, sqlText string, args ...any) (*Result, error) {
	return db.defConn.ExecContext(ctx, sqlText, args...)
}

// QueryContext runs a SELECT on the default connection, streaming the result
// as a Rows cursor.
func (db *DB) QueryContext(ctx context.Context, sqlText string, args ...any) (*Rows, error) {
	return db.defConn.QueryContext(ctx, sqlText, args...)
}

// ExecScript runs a semicolon-separated script on the default connection,
// stopping at the first error.
func (db *DB) ExecScript(ctx context.Context, script string) error {
	return db.defConn.ExecScript(ctx, script)
}

// Analyze refreshes optimizer statistics for a table. Run it after bulk
// loads so the planner sees realistic cardinalities.
func (db *DB) Analyze(table string) error { return db.kernel.Analyze(table) }

// Explain returns the physical plan for a SELECT without running it.
func (db *DB) Explain(sqlText string) (string, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return "", fmt.Errorf("stagedb: EXPLAIN supports SELECT only")
	}
	node, err := db.kernel.Plan(sel)
	if err != nil {
		return "", err
	}
	return plan.Explain(node), nil
}

// Stages returns per-stage monitoring snapshots (queue lengths, service
// counts, busy time) followed by the pseudo-stages' counters. This is the
// §5.2 "easy to monitor" surface; the threaded baseline shows its one
// execute stage.
func (db *DB) Stages() []metrics.StageSnapshot { return db.front.Snapshot() }

// EngineLoad reports the engine's instantaneous load: requests submitted but
// not yet completed, and the depth of the execute-stage queue (on the
// threaded baseline, the queue of its one stage). Both are O(1) reads — cheap
// enough to sample on every admission decision — and they are the signals
// the network server's admission stage sheds on: in-flight bounds total
// concurrent work, execute-queue depth is the paper's §5.2 first symptom of
// a bottleneck.
func (db *DB) EngineLoad() (inflight int64, executeQueue int) {
	return db.front.InFlight(), db.front.ExecuteQueueLen()
}

// ScanShareStats reports the staged engine's synchronized-scan activity:
// scans that found no scan of their table in flight (share misses), scans
// that started at an in-flight scan's position and how many of those
// wrapped, scans deregistered (an early Rows.Close deregisters its scan),
// and heap pages walked. Every scan decodes its own pages, so
// PagesDelivered equals PagesDecoded.
type ScanShareStats = exec.SharedScanStats

// ScanShares snapshots the scan-sharing counters (zero on the threaded
// engine or with DisableSharedScans).
func (db *DB) ScanShares() ScanShareStats { return db.front.ScanShares() }

// MVCCStats reports the multi-version store's activity: snapshots opened,
// transaction outcomes, first-committer-wins conflicts raised, and dead
// versions reclaimed by Vacuum. ActiveSnapshots is the number of snapshots
// currently pinning the garbage-collection horizon; OldestActiveTS is that
// horizon (a logical timestamp). The same counters appear as the "mvcc"
// pseudo-stage in Stages and the CLI \stages view.
type MVCCStats = mvcc.Stats

// MVCCStats snapshots the multi-version store's counters.
func (db *DB) MVCCStats() MVCCStats { return db.kernel.MVCCStats() }

// Vacuum reclaims dead row versions: every version superseded or deleted by
// a transaction that committed at or before the oldest open snapshot's begin
// timestamp is physically removed from the heap and its index entries
// dropped. It runs one short write transaction per table and returns the
// number of versions reclaimed. Safe to run alongside live traffic — open
// snapshots keep the versions they can still see.
func (db *DB) Vacuum(ctx context.Context) (int64, error) {
	n, err := db.kernel.Vacuum(ctx)
	return n, normalizeErr(err)
}

// TableVersions counts a table's physical heap records by version state:
// live (the latest state) and dead (superseded or deleted, awaiting Vacuum).
// Dead staying at zero after a Vacuum with no snapshots open is the
// no-orphan-versions invariant the crash harness asserts.
func (db *DB) TableVersions(table string) (live, dead int64, err error) {
	return db.kernel.TableVersions(table)
}

// IOStats reports page reads and writes between the buffer pool and the page
// store — the in-memory store, or the data file of a durable database —
// since Open. Scan benchmarks use it to show sharing's I/O saving.
func (db *DB) IOStats() (reads, writes uint64) {
	st := db.kernel.Store()
	return st.Reads(), st.Writes()
}

// PagePoolStats reports the executor's exchange-page pool activity: pool
// hits and misses, recycled pages, and pages currently checked out.
// Outstanding returning to zero between queries is the invariant the
// page-recycle protocol guarantees (and the leak tests assert).
type PagePoolStats = exec.PagePoolStats

// PagePoolStats snapshots the exchange-page pool counters (also visible as
// the pagepool pseudo-stage in Stages and the CLI \stages view).
func (db *DB) PagePoolStats() PagePoolStats { return db.kernel.PagePool().Stats() }

// PlanCacheStats reports the prepared-statement cache's activity: lookups
// served from cache, lookups that had to parse and plan, entries dropped by
// DDL/Analyze invalidation, and the current entry count. The same counters
// appear as the "prepare" pseudo-stage in Stages.
type PlanCacheStats = engine.PlanCacheStats

// PlanCacheStats snapshots the prepared-statement cache counters.
func (db *DB) PlanCacheStats() PlanCacheStats { return db.kernel.PlanCacheStats() }

// SpillStats reports the memory-bounded operators' spill activity: external
// sorts that wrote runs, cascade merge passes, Top-N executions, grace
// partitions of spilling aggregations and joins, and spill-file lifecycle.
// FilesLive must be zero whenever no query is running — early Rows.Close and
// context cancellation remove every temp run file (the leak tests assert
// it). The same counters appear as the "spill" pseudo-stage in Stages and
// the CLI \stages view.
type SpillStats = exec.SpillStats

// WorkMem reports the effective per-query memory budget in bytes (the
// configured value, or the environment/default resolution when none is set,
// with the 64 KB floor applied).
func (db *DB) WorkMem() int {
	return int(exec.ResolveWorkMem(db.kernel.WorkMem()))
}

// SpillStats snapshots the spill counters.
func (db *DB) SpillStats() SpillStats { return db.kernel.SpillStats() }

// request builds, submits, and waits on one statement request. Every SELECT
// streams (Stream is always set); callers either hand the cursor out as
// Rows or materialize it, so there is exactly one delivery path.
func (c *Conn) request(ctx context.Context, sqlText string, args []any, queryOnly bool) (*engine.Request, error) {
	vals, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	req := &engine.Request{
		Session:   c.sess,
		SQL:       sqlText,
		Ctx:       ctx,
		Args:      vals,
		QueryOnly: queryOnly,
		Stream:    true,
		Done:      make(chan struct{}),
	}
	if err := c.submitWait(req); err != nil {
		return nil, err
	}
	return req, nil
}

// submitWait submits the request to the front end and waits for it. A cursor
// created before the request failed (e.g. shutdown racing the packet between
// execute and disconnect) still owns a running pipeline and an open
// transaction; both are released.
func (c *Conn) submitWait(req *engine.Request) error {
	if err := c.db.front.Submit(req); err != nil {
		return normalizeErr(err)
	}
	if _, err := req.Wait(); err != nil {
		if req.Cursor != nil {
			req.Cursor.Close()
		}
		return normalizeErr(err)
	}
	return nil
}

// ExecContext runs one statement on this connection. BEGIN/COMMIT/ROLLBACK
// manage an explicit transaction; other statements auto-commit outside one.
// `?` placeholders bind the trailing arguments. SELECT results are
// materialized through the streaming path; use QueryContext to stream them
// instead. A canceled ctx fails the request between pipeline stages, and an
// execution in flight stops between pages.
func (c *Conn) ExecContext(ctx context.Context, sqlText string, args ...any) (*Result, error) {
	req, err := c.request(ctx, sqlText, args, false)
	if err != nil {
		return nil, err
	}
	if req.Cursor != nil {
		rows := &Rows{cur: req.Cursor}
		return rows.materialize()
	}
	res := req.Result
	return &Result{Columns: res.Columns, Rows: res.Rows, Affected: res.Affected}, nil
}

// QueryContext runs a SELECT, streaming the result as a Rows cursor fed
// page-at-a-time from the execute stage's final exchange. The caller must
// Close the cursor: an early Close abandons the producing pipeline like a
// satisfied LIMIT, and a canceled ctx fails the request wherever it stands.
// Non-SELECT statements are rejected.
func (c *Conn) QueryContext(ctx context.Context, sqlText string, args ...any) (*Rows, error) {
	req, err := c.request(ctx, sqlText, args, true)
	if err != nil {
		return nil, err
	}
	return &Rows{cur: req.Cursor}, nil
}

// bindArgs converts Go arguments to SQL values for `?` binding.
func bindArgs(args []any) ([]Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]Value, len(args))
	for i, a := range args {
		v, err := value.FromGo(a)
		if err != nil {
			return nil, fmt.Errorf("stagedb: argument %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

// ExecTxn submits a whole transaction script as one unit of work. On the
// worker-pool engine this keeps a single worker responsible for the whole
// transaction, avoiding the pool-wide stall where every worker waits on a
// lock whose holder's COMMIT is queued (§3.1.1). ctx reaches every
// statement: a canceled or expired ctx fails the statement it interrupts,
// a lock wait included, and rolls the transaction back.
func (c *Conn) ExecTxn(ctx context.Context, stmts []string) (*Result, error) {
	req := &engine.Request{Session: c.sess, Script: stmts, Ctx: ctx, Done: make(chan struct{})}
	if err := c.submitWait(req); err != nil {
		return nil, err
	}
	res := req.Result
	return &Result{Columns: res.Columns, Rows: res.Rows, Affected: res.Affected}, nil
}

// ExecScript runs each ;-separated statement in order, each under ctx.
func (c *Conn) ExecScript(ctx context.Context, script string) error {
	for _, stmt := range splitScript(script) {
		if _, err := c.ExecContext(ctx, stmt); err != nil {
			return fmt.Errorf("stagedb: %q: %w", abbreviate(stmt), err)
		}
	}
	return nil
}

// InTxn reports whether this connection has an open transaction.
func (c *Conn) InTxn() bool { return c.sess.InTxn() }

// Abort rolls back the connection's open transaction (if any) directly,
// without routing a ROLLBACK through the engine's stage queues. Teardown
// paths need this form: an abandoned transaction's locks may be exactly what
// every execute worker is blocked waiting on, so a queued ROLLBACK would sit
// behind its own waiters forever. Abort must not race an in-flight request
// on this connection.
func (c *Conn) Abort() error { return normalizeErr(c.sess.Abort()) }

// splitScript splits on semicolons outside string literals and SQL line
// comments. Inside a string, a doubled quote (”) is an escaped quote, not a
// string boundary; inside a `-- ...` comment, quotes and semicolons are
// plain text until the end of the line.
func splitScript(script string) []string {
	var out []string
	var cur strings.Builder
	hasCode := false // segment contains bytes outside comments and whitespace
	flush := func() {
		if s := strings.TrimSpace(cur.String()); s != "" && hasCode {
			out = append(out, s)
		}
		cur.Reset()
		hasCode = false
	}
	inStr := false
	for i := 0; i < len(script); i++ {
		ch := script[i]
		switch {
		case inStr:
			if ch == '\'' {
				if i+1 < len(script) && script[i+1] == '\'' {
					// Escaped quote: copy both bytes, stay in the string.
					cur.WriteByte('\'')
					i++
				} else {
					inStr = false
				}
			}
			cur.WriteByte(ch)
		case ch == '\'':
			inStr = true
			hasCode = true
			cur.WriteByte(ch)
		case ch == '-' && i+1 < len(script) && script[i+1] == '-':
			// Line comment: copy through the newline verbatim (the statement
			// parser skips it); a ; or ' inside must not split or toggle, and
			// a segment holding only comments is not a statement.
			for i < len(script) && script[i] != '\n' {
				cur.WriteByte(script[i])
				i++
			}
			if i < len(script) {
				cur.WriteByte('\n')
			}
		case ch == ';':
			flush()
		default:
			if ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r' {
				hasCode = true
			}
			cur.WriteByte(ch)
		}
	}
	flush()
	return out
}

func abbreviate(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}
