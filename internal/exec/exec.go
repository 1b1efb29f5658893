// Package exec executes physical plans. Operators exchange fixed-capacity
// row pages; the same operator kernels serve both drivers:
//
//   - RunCtx: the classic pull (Volcano) driver used by the thread-per-worker
//     baseline engine — the caller's goroutine pulls pages through the tree.
//   - RunStaged: the paper's §4.1.2 execution scheme — every operator runs
//     on its owning stage's worker pool (StagePool), operators are activated
//     bottom-up (leaves first, "page push"), and pages flow through bounded
//     producer-consumer buffers with back-pressure.
//
// The hot path is vectorized: exchange pages are pooled and recycled under
// an explicit ownership protocol (see pagepool.go), scalar expressions are
// compiled to closures once per operator at build time (plan.Compile), and
// filter-style kernels evaluate whole pages against a reusable selection
// vector instead of copying surviving rows.
package exec

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"

	"stagedb/internal/catalog"
	"stagedb/internal/plan"
	"stagedb/internal/storage"
	"stagedb/internal/value"
)

// Exchange page sizing. §4.4(c) names the page size as the parameter that
// trades per-handoff overhead (a locked exchange send, a worker wake, a park,
// a page get/put) against latency. Unless BuildConfig.PageRows fixes it, each
// operator sizes its output pages from the row width it carves (pageRowsFor):
// min(maxPageRows, max(DefaultPageRows, maxPageValues/width)) rows, so a
// recycled page keeps its value storage. Three bounds keep a larger page
// from costing latency or reads:
//   - every node from a Limit down to the first blocking operator (Sort,
//     Aggregate, TopN, a join's build side) keeps DefaultPageRows, so a
//     satisfied LIMIT leaves little read ahead in its buffers;
//   - a seq scan emits a non-empty page once one Next walked
//     scanPagesPerPage heap pages, an index scan once it visited
//     scanEntriesPerPage index entries, so a selective scan's first rows
//     do not wait for a full page of matches;
//   - the server cuts every exchange page it streams into wire Page frames
//     of at most 64 rows.
const (
	// DefaultPageRows is the page below a Limit and the floor of the
	// width rule.
	DefaultPageRows = 64
	// maxPageRows caps the width rule.
	maxPageRows = 512

	scanPagesPerPage   = 64
	scanEntriesPerPage = 4096
)

// pageRowsFor is the width rule: the rows of an output page whose rows are
// width values wide.
func pageRowsFor(width int) int {
	return min(maxPageRows, max(DefaultPageRows, maxPageValues/max(width, 1)))
}

// maxPageValues caps the value storage a recycled exchange page keeps for
// its next use (8,192 values, 256 KB): enough for a decoded heap page or a
// full page of wide join rows, while a page that grew past it drops the
// storage on recycle so a parked page cannot hoard memory. It is also the
// largest chunk an arena allocates.
const maxPageValues = 8192

// DefaultWorkMem is the per-query memory budget of the stateful operators
// (sort, hash aggregation, hash-join build) when none is configured.
const DefaultWorkMem = 16 << 20

// MinWorkMem floors the effective budget: below it, spill runs degenerate to
// a handful of rows each and the operator drowns in file churn. Configured
// budgets are clamped up to it.
const MinWorkMem = 64 << 10

// WorkMemEnv names the environment variable consulted when no explicit
// budget is configured — CI's spill-smoke step sets it tiny so the spill
// paths run under the ordinary test suite.
const WorkMemEnv = "STAGEDB_WORKMEM"

var envWorkMem struct {
	once sync.Once
	v    int64
}

// resolveWorkMem turns a configured budget into the effective one: explicit
// values are clamped to MinWorkMem, zero falls back to WorkMemEnv and then
// DefaultWorkMem.
func ResolveWorkMem(v int64) int64 {
	if v <= 0 {
		envWorkMem.once.Do(func() {
			if s := os.Getenv(WorkMemEnv); s != "" {
				if n, err := strconv.ParseInt(s, 10, 64); err == nil {
					envWorkMem.v = n
				}
			}
		})
		v = envWorkMem.v
	}
	if v <= 0 {
		v = DefaultWorkMem
	}
	if v < MinWorkMem {
		v = MinWorkMem
	}
	return v
}

// VisibleFunc decides whether a record version stamped (xmin, xmax) is
// visible to the running query's snapshot. The engine derives it from the
// MVCC manager; exec only threads it into the scans.
type VisibleFunc func(xmin, xmax uint64) bool

// BuildConfig parameterizes operator construction.
type BuildConfig struct {
	// PageRows, when positive, fixes every exchange page at that many rows.
	// 0 sizes each operator's pages from its row width, keeping
	// DefaultPageRows below a Limit (see maxPageRows).
	PageRows int
	// Pool recycles exchange pages (nil = plain allocation).
	Pool *PagePool
	// WorkMem is the per-query memory budget, in bytes, enforced by the
	// stateful operators: sorts past it spill sorted runs, hash aggregations
	// and hash-join build sides past it partition to temp files. 0 resolves
	// through the STAGEDB_WORKMEM environment variable and then
	// DefaultWorkMem; values below MinWorkMem clamp up to it.
	WorkMem int64
	// TempDir hosts spill files ("" = os.TempDir()).
	TempDir string
	// Spill accumulates spill counters (nil = discarded).
	Spill *SpillMetrics
	// Visible decides which versions of a heap record the scans return: a
	// scan reads each record's storage.VerHdrLen version header, drops the
	// versions the function rejects and decodes the payload after it. Nil
	// means the latest state (LatestVersions).
	Visible VisibleFunc

	// early marks a node whose output a Limit may stop reading after a
	// few rows: with PageRows 0 it keeps DefaultPageRows.
	early bool
}

// resolve fills defaulted fields.
func (c BuildConfig) resolve() BuildConfig {
	c.WorkMem = ResolveWorkMem(c.WorkMem)
	if c.Visible == nil {
		c.Visible = LatestVersions
	}
	return c
}

// LatestVersions is the visibility of the latest state: live versions only.
func LatestVersions(xmin, xmax uint64) bool { return xmax == 0 }

// maxPresize bounds operator pre-sizing from planner estimates so a wild
// estimate cannot allocate an absurd hash table up front.
const maxPresize = 1 << 20

// presizeHint clamps a cardinality estimate into a usable make() hint.
func presizeHint(est float64) int {
	if est <= 0 {
		return 0
	}
	if est > maxPresize {
		return maxPresize
	}
	return int(est)
}

// Tables resolves table names to their physical storage. The engine
// implements it; tests use a map.
type Tables interface {
	// HeapOf returns the heap file storing the table.
	HeapOf(t *catalog.Table) (*storage.Heap, error)
	// IndexOf returns the B+tree for a catalog index.
	IndexOf(ix *catalog.Index) (*storage.BTree, error)
}

// Operator produces pages. Implementations are single-consumer. A returned
// page is owned by the caller, which must Release it (or forward it) when
// done.
//
// Under the staged scheduler a child read can report errWouldBlock instead
// of blocking the worker. Operators therefore keep any partially accumulated
// state in fields (never in locals), propagate errWouldBlock unchanged, and
// pick up exactly where they left off on the next call.
type Operator interface {
	// Open prepares the operator (recursively opening children).
	Open() error
	// Next returns the next page, or nil at end of stream.
	Next() (*Page, error)
	// Close releases resources (recursively), including any partially
	// built pages the operator still holds.
	Close() error
}

// forChild is the configuration child i of node n builds under: a Limit
// with a row count starts an early-stopping region, a blocking operator
// (Sort, Aggregate, TopN, a join's build side) consumes its whole input and
// ends one.
func (c BuildConfig) forChild(n plan.Node, i int) BuildConfig {
	switch x := n.(type) {
	case *plan.Limit:
		c.early = c.early || x.N >= 0
	case *plan.Sort, *plan.Aggregate, *plan.TopN:
		c.early = false
	case *plan.Join:
		c.early = c.early && i == 0
	}
	return c
}

// BuildWith converts a plan into an operator tree under the given build
// configuration (page sizing, page pool, WorkMem budget, spill wiring).
func BuildWith(n plan.Node, tables Tables, cfg BuildConfig) (Operator, error) {
	var build func(n plan.Node, cfg BuildConfig) (Operator, error)
	build = func(n plan.Node, cfg BuildConfig) (Operator, error) {
		var children []Operator
		for i, c := range n.Children() {
			op, err := build(c, cfg.forChild(n, i))
			if err != nil {
				return nil, err
			}
			children = append(children, op)
		}
		return BuildNode(n, children, tables, cfg)
	}
	return build(n, cfg)
}

// BuildNode constructs the operator for a single plan node over
// already-built child operators, compiling the node's expressions into
// closure evaluators. The staged driver uses it to splice exchanges between
// nodes.
func BuildNode(n plan.Node, children []Operator, tables Tables, cfg BuildConfig) (Operator, error) {
	cfg = cfg.resolve()
	switch {
	case cfg.PageRows > 0:
	case cfg.early:
		cfg.PageRows = DefaultPageRows
	default:
		cfg.PageRows = pageRowsFor(len(n.Schema()))
	}
	pageRows, pool := cfg.PageRows, cfg.Pool
	want := len(n.Children())
	if len(children) != want {
		return nil, fmt.Errorf("exec: node %T wants %d children, got %d", n, want, len(children))
	}
	switch x := n.(type) {
	case *plan.SeqScan:
		h, err := tables.HeapOf(x.Table)
		if err != nil {
			return nil, err
		}
		s := &seqScan{node: x, heap: h}
		if err := s.rows.init(x.Table, x.Cols, x.Filter, cfg); err != nil {
			return nil, err
		}
		return s, nil
	case *plan.IndexScan:
		h, err := tables.HeapOf(x.Table)
		if err != nil {
			return nil, err
		}
		bt, err := tables.IndexOf(x.Index)
		if err != nil {
			return nil, err
		}
		// Expression bounds (prepared-statement parameters, by now
		// substituted to constants) resolve here, once per execution. A
		// parameter bound that resolved to NULL came from a comparison
		// (`col = ?`, `col < ?`, BETWEEN) whose NULL operand matches no row
		// — it must not degrade to an open bound scanning everything.
		lo, hi, err := x.Bounds()
		if err != nil {
			return nil, err
		}
		if (x.LoExpr != nil && lo.IsNull()) || (x.HiExpr != nil && hi.IsNull()) {
			return emptyOp{}, nil
		}
		s := &indexScan{heap: h, tree: bt, lo: lo, hi: hi}
		if err := s.rows.init(x.Table, x.Cols, x.Filter, cfg); err != nil {
			return nil, err
		}
		return s, nil
	case *plan.Filter:
		return &filterOp{child: children[0], pred: plan.CompilePredicate(x.Pred)}, nil
	case *plan.Project:
		exprs := make([]plan.CompiledExpr, len(x.Exprs))
		for i, e := range x.Exprs {
			exprs[i] = plan.Compile(e)
		}
		return &projectOp{child: children[0], exprs: exprs, pool: pool}, nil
	case *plan.Join:
		var resid plan.CompiledPredicate
		if x.Residual != nil {
			resid = plan.CompilePredicate(x.Residual)
		}
		return &hashJoin{
			node: x, left: children[0], right: children[1], pageRows: pageRows, pool: pool,
			resid: resid, buildHint: presizeHint(x.R.Rows()),
			workMem: cfg.WorkMem, tmpDir: cfg.TempDir, spillM: cfg.Spill,
		}, nil
	case *plan.Aggregate:
		a := &aggregateOp{node: x, child: children[0], pageRows: pageRows,
			groupHint: presizeHint(x.Est),
			workMem:   cfg.WorkMem, tmpDir: cfg.TempDir, spillM: cfg.Spill}
		a.groupBy = make([]plan.CompiledExpr, len(x.GroupBy))
		for i, g := range x.GroupBy {
			a.groupBy[i] = plan.Compile(g)
		}
		a.aggArg = make([]plan.CompiledExpr, len(x.Aggs))
		for i, spec := range x.Aggs {
			if spec.Arg != nil {
				a.aggArg[i] = plan.Compile(spec.Arg)
			}
		}
		return a, nil
	case *plan.Sort:
		s := &sortOp{node: x, child: children[0], pageRows: pageRows, pool: pool,
			workMem: cfg.WorkMem, tmpDir: cfg.TempDir, spill: cfg.Spill}
		s.keys = make([]plan.CompiledExpr, len(x.Keys))
		for i, k := range x.Keys {
			s.keys[i] = plan.Compile(k.Expr)
		}
		s.hint = presizeHint(x.Child.Rows())
		return s, nil
	case *plan.TopN:
		t := &topNOp{node: x, child: children[0], pageRows: pageRows, spill: cfg.Spill}
		t.keys = make([]plan.CompiledExpr, len(x.Keys))
		for i, k := range x.Keys {
			t.keys[i] = plan.Compile(k.Expr)
		}
		return t, nil
	case *plan.Limit:
		return &limitOp{child: children[0], n: x.N, offset: x.Offset}, nil
	}
	return nil, fmt.Errorf("exec: unsupported plan node %T", n)
}

// RunCtx pulls the entire result through the operator tree (Volcano
// driver), checking a non-nil ctx for cancellation between pages.
func RunCtx(ctx context.Context, op Operator) ([]value.Row, error) {
	cur, err := NewCursor(ctx, op)
	if err != nil {
		return nil, err
	}
	return Drain(cur)
}

// --- scans ---
//
// Both scans are true streaming cursors: Open positions a resumable storage
// cursor, each Next decodes just enough records to fill one pooled exchange
// page, and Close releases the cursor wherever it stands — so LIMIT queries
// and abandoned producers stop heap iteration early instead of materializing
// the table (§4.2's fscan stage as an incremental producer). Both run each
// record through one filter (scanRows): a pushed-down filter is evaluated
// on the columns it reads before the record gets a page slot, so filtered
// rows are never decoded into a page at all. A scan decodes only the
// columns its plan node lists (plan.SeqScan.Cols): the rest stay NULL in a
// full-width row.

// visMemo is a scan operator's MVCC visibility check with a one-entry memo
// on the creator: bulk-loaded tables are long runs of one xmin, and asking
// the MVCC manager per row takes its RWMutex per row — one cache line
// bounced between every core that scans.
//
// Why one verdict per creator is sound. For a live version (xmax == 0) the
// verdict is "is xmin the snapshot's own transaction, or committed at or
// before snap.TS", and for the life of one snapshot that is a function of
// xmin alone:
//   - own writes are always visible;
//   - a creator committed at or before snap.TS stays so — once its status
//     entry is pruned it resolves to "committed at 0", the same verdict;
//   - a creator still active, or committed after snap.TS, can only ever
//     carry a commit timestamp above snap.TS: the oracle is monotonic;
//   - an aborted creator stays aborted, and its entry cannot be pruned while
//     this snapshot is open and could still meet one of its records
//     (mvcc.Prune's abortEpoch < horizon rule).
//
// A version with xmax != 0 always takes the full check: its verdict also
// depends on the deleter. (This needs a snapshot never to begin between a
// committer drawing its timestamp and publishing it — otherwise it would read
// the creator as active first and committed-at-TS after, and the memo would
// freeze the first verdict. mvcc.Manager does both, and Begin, under one
// lock.)
//
// The memo lives in the operator, never in the VisibleFunc closure: one
// closure serves every scan of a plan, and those run concurrently on
// different stage workers. An operator is built per execution, under one
// snapshot, and is stepped by one worker at a time.
type visMemo struct {
	fn       VisibleFunc
	lastXmin uint64
	lastOK   bool
	valid    bool
}

// visible reports whether the version stamped (xmin, xmax) is visible to the
// scan's snapshot.
//
//stagedb:hot
func (m *visMemo) visible(xmin, xmax uint64) bool {
	if xmax != 0 {
		return m.fn(xmin, xmax)
	}
	if !m.valid || xmin != m.lastXmin {
		m.lastXmin, m.lastOK, m.valid = xmin, m.fn(xmin, 0), true
	}
	return m.lastOK
}

// scanRows is the record filter both heap scans share, and the output page
// it fills. Per record it reads the version header and asks the snapshot
// (through the visibility memo) first. Without a pushed-down filter a
// visible record's columns decode straight into a row carved from the
// output page. With one, they decode into a probe row the operator owns,
// the filter runs on it, and only a record that passes gets a row carved
// and the probe copied into it: a rejected record costs no page slot. The
// node's Cols always hold the filter's columns (plan's prune pass), so one
// decoder serves both.
//
// Visibility comes before the filter: a filter that fails to evaluate on a
// version the snapshot cannot see must not fail the scan.
type scanRows struct {
	vis   visMemo
	dec   storage.RowDecoder     // the node's Cols
	width int                    // the table's column count
	pred  plan.CompiledPredicate // nil: every visible record passes
	probe value.Row              // with pred: the record under test

	pool     *PagePool
	pageRows int
	out      *Page // output page under construction
}

// init compiles the record filter of a scan of tbl that outputs cols and
// keeps the rows filter (nil: every visible row) accepts.
func (r *scanRows) init(tbl *catalog.Table, cols []bool, filter plan.Expr, cfg BuildConfig) error {
	r.vis = visMemo{fn: cfg.Visible}
	r.width, r.pool, r.pageRows = len(tbl.Schema.Columns), cfg.Pool, cfg.PageRows
	if filter != nil {
		r.pred, r.probe = plan.CompilePredicate(filter), make(value.Row, r.width)
	}
	var err error
	r.dec, err = storage.NewRowDecoder(tbl.Schema, cols)
	return err
}

// accept runs the record filter on the versioned record rec, appending its
// row to the output page when the snapshot sees it and the filter passes.
//
//stagedb:hot
func (r *scanRows) accept(rec []byte) error {
	xmin, xmax, err := storage.VersionOf(rec)
	if err != nil {
		return err
	}
	if !r.vis.visible(xmin, xmax) {
		return nil
	}
	payload := rec[storage.VerHdrLen:]
	if r.pred != nil {
		if err := r.dec.Decode(payload, r.probe); err != nil {
			return err
		}
		if keep, err := r.pred(r.probe); err != nil || !keep {
			return err
		}
	}
	if r.out == nil {
		r.out = r.pool.Get(r.pageRows)
	}
	row := r.out.carve(r.width)
	if r.pred != nil {
		copy(row, r.probe)
	} else if err := r.dec.Decode(payload, row); err != nil {
		return err
	}
	r.out.Rows = append(r.out.Rows, row)
	return nil
}

// full reports whether the output page under construction is full.
func (r *scanRows) full() bool { return r.out != nil && len(r.out.Rows) >= r.pageRows }

// started reports whether the output page under construction holds a row.
func (r *scanRows) started() bool { return r.out != nil && len(r.out.Rows) > 0 }

// emit hands the page under construction to the caller, transferring
// ownership. A page every record of which was rejected holds nothing and
// goes back to the pool: the caller sees nil, end of stream (emit only runs
// on an empty page once the scan is exhausted).
func (r *scanRows) emit() *Page {
	pg := r.out
	r.out = nil
	if pg != nil && len(pg.Rows) == 0 {
		pg.Release()
		return nil
	}
	return pg
}

// release drops the page under construction.
func (r *scanRows) release() {
	r.out.Release()
	r.out = nil
}

type seqScan struct {
	node *plan.SeqScan
	heap *storage.Heap
	rows scanRows

	// shared, injected by the staged driver when scan sharing is enabled,
	// synchronizes the walk with the other scans of the heap (see
	// SharedScans): the scan registers at Open, starts at the position an
	// in-flight scan reported, reports its own after each page, and
	// deregisters at end of stream or Close. reg is the live registration.
	shared *SharedScans
	reg    *scanPos
	walked int // pages read under the registration

	// The walk goes page-at-a-time under the heap latch (storage.Cursor
	// would alias page bytes across calls, unsafe while MVCC writers mutate
	// concurrently): the page list is snapshotted at Open — rows a concurrent
	// writer adds later are invisible to this snapshot anyway — and each Next
	// drains whole pages until the output fills, or until it walked
	// scanPagesPerPage pages with a row to show, so LIMIT queries still read
	// only a prefix and a selective scan's first rows do not wait for a full
	// page of matches. The walk is circular from pageIdx and covers left
	// more pages.
	pages   []storage.PageID
	pageIdx int
	left    int

	eos bool
}

func (s *seqScan) Open() error {
	s.rows.out, s.eos, s.walked = nil, false, 0
	s.pages, s.pageIdx = s.heap.PageIDs(), 0
	s.left = len(s.pages)
	if s.shared != nil && s.left > 0 {
		s.reg, s.pageIdx = s.shared.register(s.heap, s.left)
	}
	return nil
}

func (s *seqScan) Next() (*Page, error) {
	for n := 0; !s.eos && !s.rows.full(); n++ {
		if n >= scanPagesPerPage && s.rows.started() {
			break
		}
		if s.left == 0 {
			s.eos = true
			s.deregister()
			break
		}
		id := s.pages[s.pageIdx]
		s.pageIdx++
		if s.pageIdx == len(s.pages) {
			s.pageIdx = 0
		}
		s.left--
		var accErr error
		err := s.heap.ScanPage(id, func(_ storage.RID, rec []byte) bool {
			accErr = s.rows.accept(rec)
			return accErr == nil
		})
		if err == nil {
			err = accErr
		}
		if err != nil {
			return nil, err
		}
		if s.reg != nil {
			s.reg.next.Store(int64(s.pageIdx))
			s.walked++
		}
	}
	return s.rows.emit(), nil
}

// deregister ends the scan's registration, if any. Idempotent.
func (s *seqScan) deregister() {
	if s.reg != nil {
		s.shared.deregister(s.heap, s.reg, s.walked)
		s.reg = nil
	}
}

func (s *seqScan) Close() error {
	s.deregister()
	s.pages, s.pageIdx, s.left = nil, 0, 0
	s.rows.release()
	return nil
}

type indexScan struct {
	heap   *storage.Heap
	tree   *storage.BTree
	lo, hi value.Value // resolved key bounds (NULL = open)
	rows   scanRows

	cur *storage.TreeCursor
	eos bool
}

func (s *indexScan) Open() error {
	s.rows.out, s.eos = nil, false
	s.cur = s.tree.Cursor(s.lo, s.hi)
	return nil
}

func (s *indexScan) Next() (*Page, error) {
	for visited := 0; !s.eos && !s.rows.full(); visited++ {
		if visited >= scanEntriesPerPage && s.rows.started() {
			break
		}
		_, rid, ok := s.cur.Next()
		if !ok {
			s.eos = true
			break
		}
		// Index entries reference every version of a key (dead versions
		// stay indexed until vacuum); the heap record's stamps decide
		// visibility, and a slot vacuum reclaimed mid-scan was invisible to
		// this snapshot by the GC horizon rule — Visit skips it.
		if err := s.heap.Visit(rid, s.rows.accept); err != nil {
			return nil, err
		}
	}
	return s.rows.emit(), nil
}

func (s *indexScan) Close() error {
	s.cur = nil
	s.rows.release()
	return nil
}

// emptyOp produces no rows: the operator for predicates the planner (or a
// NULL-resolved parameter bound) proves can match nothing.
type emptyOp struct{}

func (emptyOp) Open() error          { return nil }
func (emptyOp) Next() (*Page, error) { return nil, nil }
func (emptyOp) Close() error         { return nil }

// slicePage cuts the next batch from a fully materialized result (used by
// the pipeline-breaking sort and aggregate). The emitted pages are unpooled
// views into the materialized slice — no copying, and Release is a no-op on
// them.
func slicePage(pos *int, rows []value.Row, pageRows int) *Page {
	if *pos >= len(rows) {
		return nil
	}
	end := *pos + pageRows
	if end > len(rows) {
		end = len(rows)
	}
	pg := &Page{Rows: rows[*pos:end]}
	*pos = end
	return pg
}

// --- filter / project ---

// filterOp is the vectorized filter: it narrows each incoming page's
// selection vector in place through the compiled predicate and forwards the
// page without copying a single row. Fully filtered pages are released and
// skipped.
type filterOp struct {
	child Operator
	pred  plan.CompiledPredicate
}

func (f *filterOp) Open() error { return f.child.Open() }

func (f *filterOp) Next() (*Page, error) {
	for {
		pg, err := f.child.Next()
		if err != nil || pg == nil {
			// errWouldBlock propagates unchanged: the filter holds no state.
			return nil, err
		}
		if err := pg.narrow(f.pred); err != nil {
			pg.Release()
			return nil, err
		}
		if pg.Len() == 0 {
			pg.Release()
			continue
		}
		return pg, nil
	}
}

func (f *filterOp) Close() error { return f.child.Close() }

// projectOp computes output expressions page-at-a-time, carving each output
// row from the output page's own value storage.
type projectOp struct {
	child Operator
	exprs []plan.CompiledExpr
	pool  *PagePool
}

func (p *projectOp) Open() error { return p.child.Open() }

func (p *projectOp) Next() (*Page, error) {
	for {
		pg, err := p.child.Next()
		if err != nil || pg == nil {
			return nil, err
		}
		n := pg.Len()
		if n == 0 {
			pg.Release()
			continue
		}
		out := p.pool.Get(n)
		for i := 0; i < n; i++ {
			row := pg.Row(i)
			nr := out.carve(len(p.exprs))
			for j, e := range p.exprs {
				v, err := e(row)
				if err != nil {
					out.Release()
					pg.Release()
					return nil, err
				}
				nr[j] = v
			}
			out.Rows = append(out.Rows, nr)
		}
		pg.Release()
		return out, nil
	}
}

func (p *projectOp) Close() error { return p.child.Close() }

// --- limit ---

// limitOp trims pages in place (adjusting the selection vector or row slice)
// and stops pulling its child once the limit is satisfied, so upstream
// streaming operators terminate early.
type limitOp struct {
	child     Operator
	n, offset int
	skipped   int
	emitted   int
}

func (l *limitOp) Open() error {
	l.skipped, l.emitted = 0, 0
	return l.child.Open()
}

func (l *limitOp) Next() (*Page, error) {
	if l.n >= 0 && l.emitted >= l.n {
		return nil, nil
	}
	for {
		pg, err := l.child.Next()
		if err != nil || pg == nil {
			return nil, err
		}
		n := pg.Len()
		skip := 0
		if l.skipped < l.offset {
			skip = l.offset - l.skipped
			if skip > n {
				skip = n
			}
			l.skipped += skip
		}
		take := n - skip
		if l.n >= 0 && take > l.n-l.emitted {
			take = l.n - l.emitted
		}
		if take <= 0 {
			pg.Release()
			continue
		}
		pg.slice(skip, skip+take)
		l.emitted += take
		return pg, nil
	}
}

func (l *limitOp) Close() error { return l.child.Close() }
