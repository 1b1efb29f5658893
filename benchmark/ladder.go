package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"stagedb/internal/engine"
	"stagedb/internal/exec"
	"stagedb/internal/plan"
	"stagedb/internal/sql"
	"stagedb/internal/storage"
	"stagedb/internal/txn"
	"stagedb/internal/value"
	"stagedb/internal/wire"
)

// The layer ladder. Each rung is one public entry point, timed from here
// around the call; a rung's self time is its median minus the rungs beneath
// it. exec.volcano is the pull driver run on the same plan as exec.staged:
// an alternative to it, so it hangs off the tree and takes no part in the
// self-time sums.
const (
	rClient  = "client"
	rStagedb = "stagedb"
	rStaged  = "engine.staged"
	rSession = "engine.session"
	rSQL     = "sql"
	rPlan    = "plan"
	rExec    = "exec.staged"
	rVolcano = "exec.volcano"
	rStorage = "storage"
	rTxn     = "txn"
	// rSessionMem is the session rung re-run with the default WorkMem on the
	// spilling workload: the base of exec.spill_over_mem.
	rSessionMem = "engine.session@defaultmem"
	// rOverhead is the traced half of the tracing-overhead pair: the
	// workload's own connection, one span per op, outside the ladder.
	rOverhead = "overhead"
)

// rungOrder lists the rungs top-down; rungParent is the tree.
var (
	rungOrder  = []string{rClient, rStagedb, rStaged, rSession, rSQL, rPlan, rExec, rTxn, rStorage}
	rungParent = map[string]string{
		rStagedb: rClient, rStaged: rStagedb, rSession: rStaged,
		rSQL: rSession, rPlan: rSession, rExec: rSession, rTxn: rSession,
		rStorage: rExec, rVolcano: rSession, rSessionMem: rStaged,
	}
)

// span is one timed call: which op, at which rung, caused by which rung
// above it. Times are nanoseconds since the ladder began.
type span struct {
	Op     int    `json:"op_id"`
	Kind   string `json:"kind"`
	Rung   string `json:"rung"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes turns rung medians into self times: a rung's median minus what
// its children cover. A rung with no measurement (nothing to call on this
// workload) is absent from med; its children are then charged to its parent,
// so the self times of the present rungs always sum to the top rung's median.
func selfTimes(med map[string]float64) map[string]float64 {
	children := make(map[string][]string)
	for _, r := range rungOrder {
		if p, ok := rungParent[r]; ok {
			children[p] = append(children[p], r)
		}
	}
	var covered func(r string) float64
	covered = func(r string) float64 {
		if m, ok := med[r]; ok {
			return m
		}
		var sum float64
		for _, c := range children[r] {
			sum += covered(c)
		}
		return sum
	}
	self := make(map[string]float64)
	for _, r := range rungOrder {
		m, ok := med[r]
		if !ok {
			continue
		}
		for _, c := range children[r] {
			m -= covered(c)
		}
		self[r] = m
	}
	return self
}

// liveOnly is the visibility rule of a caller below the engine: with no
// transaction of its own it reads the latest state, the rule the engine
// applies to snapshot-less internal readers.
func liveOnly(xmin, xmax uint64) bool { return xmax == 0 }

// ladderRun is the traced run's state.
type ladderRun struct {
	workload string
	sz       sizes
	seed     int64
	k        int
	epoch    time.Time
	spans    []span
	// samples[rung][kind] are the rung's durations per op kind.
	samples map[string]map[string][]time.Duration

	UntracedS float64            `json:"untraced_s"`
	TracedS   float64            `json:"traced_s"`
	Counts    map[string]float64 `json:"counts"`
	// SpillBytesByKind is the counts pass's spilled bytes per op of each kind.
	SpillBytesByKind map[string]float64 `json:"spill_bytes_per_op_by_kind"`
	CodecUsPerOp     *float64           `json:"wire_codec_us_per_op"`
	WireBytesPerOp   *float64           `json:"wire_bytes_per_op"`
	SpaceAmp         *float64           `json:"space_amp"`
}

// ladderK is the fixed op count replayed per rung: sized so the whole ladder
// takes about ten seconds at the seed commit.
func ladderK(workload string, smoke bool) int {
	if smoke {
		return map[string]int{wlPointReadWire: 200, wlOLTPDurable: 60, wlAnalyticsMem: 3, wlAnalyticsSpil: 3}[workload]
	}
	return map[string]int{wlPointReadWire: 4000, wlOLTPDurable: 300, wlAnalyticsMem: 18, wlAnalyticsSpil: 3}[workload]
}

// ops returns client 0's first k ops with inserted keys namespaced by
// stripe, so each pass writes fresh rows.
func (l *ladderRun) ops(stripe int64) []op {
	return firstOps(l.workload, l.sz, l.seed, stripe, l.k)
}

// rung is one timed entry point. prep, when set, runs outside the span and
// builds the call's input; call returns the op's row (or affected) count,
// negative when the rung has none to check. Either may return errNoCall.
type rung struct {
	name string
	prep func(op) error
	call func(context.Context, op) (int, error)
	ops  []op // client 0's first k ops, inserted keys in this rung's own stripe
}

// step runs op i at rung r and records its span. An untimed rung (no name)
// records nothing.
func (l *ladderRun) step(ctx context.Context, r *rung, i int) error {
	o := r.ops[i]
	if r.prep != nil {
		if err := r.prep(o); err == errNoCall {
			return nil
		} else if err != nil {
			return fmt.Errorf("ladder rung %q op %d (%s): prepare: %w", r.name, i, o.Kind, err)
		}
	}
	t0 := time.Now()
	n, err := r.call(ctx, o)
	t1 := time.Now()
	if err == errNoCall {
		return nil
	}
	if err == nil && n >= 0 {
		err = checkRows(o, n)
	}
	if err != nil {
		return fmt.Errorf("ladder rung %q op %d (%s): %w", r.name, i, o.Kind, err)
	}
	if r.name == "" {
		return nil
	}
	l.spans = append(l.spans, span{Op: i, Kind: o.Kind, Rung: r.name, Parent: rungParent[r.name],
		Start: t0.Sub(l.epoch).Nanoseconds(), End: t1.Sub(l.epoch).Nanoseconds()})
	byKind := l.samples[r.name]
	if byKind == nil {
		byKind = make(map[string][]time.Duration)
		l.samples[r.name] = byKind
	}
	byKind[o.Kind] = append(byKind[o.Kind], t1.Sub(t0))
	return nil
}

// pass replays a rung's ops back to back and returns the wall time.
func (l *ladderRun) pass(ctx context.Context, r *rung) (time.Duration, error) {
	begin := time.Now()
	for i := range r.ops {
		if err := l.step(ctx, r, i); err != nil {
			return 0, err
		}
	}
	return time.Since(begin), nil
}

// errNoCall marks an op a rung has nothing to call for (a plan for an
// INSERT, a log append for a SELECT): no span is recorded.
var errNoCall = errors.New("nothing to call")

func argValues(o op) []value.Value {
	out := make([]value.Value, len(o.Args))
	for i, a := range o.Args {
		out[i] = value.NewInt(a)
	}
	return out
}

// checkRows is the cheap result check of the ladder: the row or affected
// count every rung must agree on, for the kinds whose count does not depend
// on the argument (the window's oracle checks the others in full).
func checkRows(o op, got int) error {
	switch o.Kind {
	case kRead, kUpdate, kInsert, kJoinK:
		if got != 1 {
			return fmt.Errorf("got %d rows, want 1", got)
		}
	}
	return nil
}

// drainCursor reads an engine cursor to its end, releasing every page.
func drainCursor(cur *engine.Cursor) (int, error) {
	n := 0
	for {
		pg, err := cur.NextPage()
		if err != nil {
			cur.Close()
			return n, err
		}
		if pg == nil {
			return n, cur.Close()
		}
		n += pg.Len()
		pg.Release()
	}
}

// stagedCall is the engine.staged rung: what stagedb.Conn does beneath its
// argument binding — submit to the five front-end stages and wait.
func (k *kernel) stagedCall(ctx context.Context, sess *engine.Session, o op) (int, error) {
	req := &engine.Request{Session: sess, SQL: o.SQL, Ctx: ctx, Args: argValues(o), Stream: true, Done: make(chan struct{})}
	if err := k.staged.Submit(req); err != nil {
		return 0, err
	}
	if _, err := req.Wait(); err != nil {
		if req.Cursor != nil {
			req.Cursor.Close()
		}
		return 0, err
	}
	if req.Cursor != nil {
		return drainCursor(req.Cursor)
	}
	return int(req.Result.Affected), nil
}

// stagedOpts assembles the options the staged front end runs a plan with.
func (k *kernel) stagedOpts(ctx context.Context, shared *exec.SharedScans, vis exec.VisibleFunc) exec.StagedOptions {
	return exec.StagedOptions{
		Shared:  shared,
		Pool:    k.db.PagePool(),
		WorkMem: k.db.WorkMem(),
		TempDir: k.cfg.TempDir,
		Spill:   k.db.SpillMetrics(),
		Visible: vis,
		Ctx:     ctx,
	}
}

// newSession opens a session that runs SELECTs on the staged executor, as
// the execute stage arranges for its sessions — so engine.staged minus
// engine.session is the front-end stage queues and nothing else.
func (k *kernel) newSession(shared *exec.SharedScans) *engine.Session {
	sess := k.db.NewSession()
	sess.SetStreamRunner(func(ctx context.Context, node plan.Node, vis exec.VisibleFunc) (exec.Cursor, error) {
		return exec.RunStagedCursor(node, k.db, k.staged.ExecPool(), k.stagedOpts(ctx, shared, vis))
	})
	return sess
}

// bind parses o and substitutes its arguments: the sql rung's work.
func bind(o op) (sql.Statement, error) {
	stmt, _, err := sql.ParseCounted(o.SQL)
	if err != nil {
		return nil, err
	}
	return sql.BindParams(stmt, argValues(o))
}

// sessionCall is the engine.session rung: parse, plan and run on the
// caller's goroutine, with no stage queue between them.
func sessionCall(ctx context.Context, sess *engine.Session, o op) (int, error) {
	stmt, err := bind(o)
	if err != nil {
		return 0, err
	}
	if sel, ok := stmt.(*sql.Select); ok {
		cur, err := sess.StreamStmt(ctx, sel, nil)
		if err != nil {
			return 0, err
		}
		return drainCursor(cur)
	}
	res, err := sess.RunStmt(ctx, stmt, nil)
	if err != nil {
		return 0, err
	}
	return int(res.Affected), nil
}

// storageCall is the storage rung: the primitive each op kind leans on. A
// point read and an insert's uniqueness probe are BTree.Search + Heap.Get;
// an UPDATE locates its row by walking the table's heap, and every analytic
// shape walks fact.
func (k *kernel) storageCall(o op) error {
	table, key := "fact", int64(-1)
	switch o.Kind {
	case kRead:
		table, key = "acct", o.Args[0]
	case kInsert:
		table, key = "acct", o.Args[1]
	case kUpdate:
		table = "acct"
	}
	tbl, err := k.db.Catalog().Get(table)
	if err != nil {
		return err
	}
	h, err := k.db.HeapOf(tbl)
	if err != nil {
		return err
	}
	if key >= 0 {
		ix := tbl.IndexOn("id")
		if ix == nil {
			return fmt.Errorf("no index on %s.id", table)
		}
		bt, err := k.db.IndexOf(ix)
		if err != nil {
			return err
		}
		rids := bt.Search(value.NewInt(key))
		if len(rids) == 0 {
			return fmt.Errorf("%s id %d not in index", table, key)
		}
		for _, rid := range rids {
			if _, err := h.Get(rid); err != nil {
				return err
			}
		}
		return nil
	}
	cur := h.Cursor()
	defer cur.Close()
	for {
		_, _, ok, err := cur.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// txnRung times DurableWAL.Append + Commit on records the size a write of
// this workload logs, against a log file of its own.
type txnRung struct {
	wal  *txn.DurableWAL
	next txn.ID
	img  []byte
}

func openTxnRung(dir string) (*txnRung, error) {
	w, _, err := txn.OpenDurableWAL(storage.OsFS{}, filepath.Join(dir, "txn-rung.wal"), false)
	if err != nil {
		return nil, err
	}
	// One acct version: 16-byte version header plus the encoded row.
	return &txnRung{wal: w, next: 1, img: make([]byte, 16+3*9+acctPadLen+4)}, nil
}

func (t *txnRung) call(o op) error {
	if o.Kind != kUpdate && o.Kind != kInsert {
		return errNoCall
	}
	id := t.next
	t.next++
	rec := txn.Record{Txn: id, Kind: txn.RecInsert, Table: "acct", After: t.img}
	if o.Kind == kUpdate {
		// An MVCC update logs two records: the old version's xmax stamp
		// (both images) and the new version's insert.
		stamp := txn.Record{Txn: id, Kind: txn.RecUpdate, Table: "acct", Before: t.img, After: t.img}
		if _, err := t.wal.Append(stamp); err != nil {
			return err
		}
	}
	if _, err := t.wal.Append(rec); err != nil {
		return err
	}
	return t.wal.Commit(txn.Record{Txn: id, Kind: txn.RecCommit})
}

// kernelCounts is one reading of the kernel's exactly-repeating counters.
type kernelCounts struct {
	reads, writes      uint64
	syncs, syncedBytes int64
	spill              exec.SpillStats
	planHits, planMiss int64
}

func (k *kernel) counts() kernelCounts {
	st := k.db.Store()
	wal := k.db.WALCounters()
	pc := k.db.PlanCacheStats()
	return kernelCounts{
		reads: st.Reads(), writes: st.Writes(),
		syncs: wal["syncs"], syncedBytes: wal["synced_bytes"],
		spill:    k.db.SpillStats(),
		planHits: pc.Hits, planMiss: pc.Misses,
	}
}

// countsPass replays the ops once on the freshly loaded kernel, one client,
// reading the counters around every op. Nothing else has touched the kernel,
// so the same seed gives the same counts.
func (l *ladderRun) countsPass(ctx context.Context, k *kernel, sess *engine.Session, ops []op) error {
	var reads, writes, rows, readSyncs, spillParts, spillFiles, spillBytes float64
	byKindBytes, byKindN := make(map[string]float64), make(map[string]float64)
	first := k.counts()
	prev := first
	for i, o := range ops {
		n, err := k.stagedCall(ctx, sess, o)
		if err == nil {
			err = checkRows(o, n)
		}
		if err != nil {
			return fmt.Errorf("counts pass op %d (%s): %w", i, o.Kind, err)
		}
		cur := k.counts()
		switch o.Kind {
		case kUpdate, kInsert:
			writes++
		default:
			reads++
			rows += float64(n)
			readSyncs += float64(cur.syncs - prev.syncs)
		}
		b := float64(cur.spill.SpilledBytes - prev.spill.SpilledBytes)
		spillBytes += b
		byKindBytes[o.Kind] += b
		byKindN[o.Kind]++
		spillParts += float64(cur.spill.AggPartitions - prev.spill.AggPartitions + cur.spill.JoinPartitions - prev.spill.JoinPartitions)
		spillFiles += float64(cur.spill.FilesCreated - prev.spill.FilesCreated)
		prev = cur
	}
	kf := float64(l.k)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	l.Counts = map[string]float64{
		"txn.syncs_per_op":                    float64(prev.syncs-first.syncs) / kf,
		"txn.syncs_per_read":                  ratio(readSyncs, reads),
		"txn.synced_bytes_per_write":          ratio(float64(prev.syncedBytes-first.syncedBytes), writes),
		"storage.page_reads_per_op":           float64(prev.reads-first.reads) / kf,
		"storage.page_writes_per_op":          float64(prev.writes-first.writes) / kf,
		"storage.pages_read_per_row_returned": ratio(float64(prev.reads-first.reads), rows),
		"engine.plan_cache_hit_ratio":         ratio(float64(prev.planHits-first.planHits), float64(prev.planHits-first.planHits+prev.planMiss-first.planMiss)),
		"exec.spill_bytes_per_op":             spillBytes / kf,
		"exec.spill_partitions_per_op":        spillParts / kf,
		"exec.spill_files_per_op":             spillFiles / kf,
	}
	l.SpillBytesByKind = make(map[string]float64)
	for kind, n := range byKindN {
		l.SpillBytesByKind[kind] = byKindBytes[kind] / n
	}
	return nil
}

// codec times the wire codec on the run's own payloads: the query frame each
// op sends and the page frame its result rides back in.
func (l *ladderRun) codec(ops []op, results [][]value.Row) error {
	var buf []byte
	var bytes int
	const frameHdr = 5
	begin := time.Now()
	for i, o := range ops {
		buf = wire.Query{SQL: o.SQL, Args: argValues(o)}.Append(buf[:0])
		if _, err := wire.ParseQuery(buf); err != nil {
			return err
		}
		bytes += frameHdr + len(buf)
		buf = wire.AppendPage(buf[:0], results[i])
		if _, err := wire.ParsePage(buf); err != nil {
			return err
		}
		bytes += frameHdr + len(buf)
	}
	us := micros(time.Since(begin)) / float64(len(ops))
	// The Columns and Done frames complete the exchange; their payloads do
	// not depend on the op, so they are sized once.
	cols := wire.AppendColumns(nil, []string{"bal"})
	done := wire.Done{}.Append(nil)
	per := float64(bytes)/float64(len(ops)) + float64(2*frameHdr+len(cols)+len(done))
	l.CodecUsPerOp, l.WireBytesPerOp = &us, &per
	return nil
}

// runLadder runs the traced half of a traced run: the counts pass, the
// tracing-overhead pair, then client 0's first k ops at every rung.
func runLadder(ctx context.Context, workload string, sz sizes, seed int64, smoke bool, t *top, cs []*clientState, dir string) (*ladderRun, error) {
	l := &ladderRun{workload: workload, sz: sz, seed: seed, k: ladderK(workload, smoke),
		samples: make(map[string]map[string][]time.Duration)}

	k, err := openKernel(ctx, workload, sz, filepath.Join(dir, "kernel"))
	if err != nil {
		return nil, fmt.Errorf("open kernel: %w", err)
	}
	defer k.close()
	shared := exec.NewSharedScans(0, k.db.PagePool())
	shared.SetVersioned(true)
	stagedSess := k.db.NewSession()
	counted := l.ops(20)
	if err := l.countsPass(ctx, k, stagedSess, counted); err != nil {
		return nil, err
	}
	if k.db.Durable() {
		if err := k.db.Checkpoint(); err != nil {
			return nil, err
		}
		disk, err := dirBytes(k.cfg.DataDir)
		if err != nil {
			return nil, err
		}
		inserts := 0
		for _, o := range counted {
			if o.Kind == kInsert {
				inserts++
			}
		}
		amp := float64(disk) / float64(userBytes(workload, sz, int64(inserts)))
		l.SpaceAmp = &amp
	}

	l.epoch = time.Now()
	c0 := cs[0]
	var results [][]value.Row // the traced pass's result rows, for the codec
	viaConn := func(c execer, keep bool) func(context.Context, op) (int, error) {
		return func(ctx context.Context, o op) (int, error) {
			res, err := c.ExecContext(ctx, o.SQL, o.anyArgs()...)
			if err != nil {
				return 0, err
			}
			if keep {
				results = append(results, res.Rows)
			}
			if o.Kind == kUpdate || o.Kind == kInsert {
				return int(res.Affected), nil
			}
			return len(res.Rows), nil
		}
	}

	// Tracing overhead: the same ops through the workload's own connection,
	// first with no span, then with one per op.
	d, err := l.pass(ctx, &rung{ops: l.ops(21), call: viaConn(c0.exec, false)})
	if err != nil {
		return nil, err
	}
	l.UntracedS = d.Seconds()
	traced := &rung{name: rOverhead, ops: l.ops(22), call: viaConn(c0.exec, c0.wire != nil)}
	if d, err = l.pass(ctx, traced); err != nil {
		return nil, err
	}
	l.TracedS = d.Seconds()
	if c0.wire != nil {
		if err := l.codec(traced.ops, results); err != nil {
			return nil, err
		}
	}

	// The plan and exec rungs take the bound statement and the plan as given:
	// binding and planning happen outside their spans.
	var sel *sql.Select
	var node plan.Node
	bindSelect := func(o op) error {
		stmt, err := bind(o)
		if err != nil {
			return err
		}
		var ok bool
		if sel, ok = stmt.(*sql.Select); !ok {
			return errNoCall
		}
		return nil
	}
	planSelect := func(o op) error {
		err := bindSelect(o)
		if err == nil {
			node, err = k.db.Plan(sel)
		}
		return err
	}
	sess := k.newSession(shared)
	session := func(ctx context.Context, o op) (int, error) { return sessionCall(ctx, sess, o) }
	var rungs []*rung
	add := func(name string, prep func(op) error, call func(context.Context, op) (int, error)) {
		rungs = append(rungs, &rung{name: name, prep: prep, call: call, ops: l.ops(int64(30 + len(rungs)))})
	}
	if c0.wire != nil {
		add(rClient, nil, viaConn(c0.exec, false))
	}
	add(rStagedb, nil, viaConn(t.db.Conn(), false))
	add(rStaged, nil, func(ctx context.Context, o op) (int, error) { return k.stagedCall(ctx, stagedSess, o) })
	add(rSession, nil, session)
	if workload == wlAnalyticsSpil {
		budget := k.db.WorkMem()
		add(rSessionMem, nil, func(ctx context.Context, o op) (int, error) {
			k.db.SetWorkMem(exec.DefaultWorkMem)
			defer k.db.SetWorkMem(budget)
			return session(ctx, o)
		})
	}
	add(rSQL, nil, func(_ context.Context, o op) (int, error) {
		_, err := bind(o)
		return -1, err
	})
	add(rPlan, bindSelect, func(context.Context, op) (int, error) {
		_, err := k.db.Plan(sel)
		return -1, err
	})
	add(rExec, planSelect, func(ctx context.Context, _ op) (int, error) {
		rows, err := exec.RunStaged(node, k.db, k.staged.ExecPool(), k.stagedOpts(ctx, shared, liveOnly))
		return len(rows), err
	})
	add(rVolcano, planSelect, func(ctx context.Context, _ op) (int, error) {
		root, err := exec.BuildWith(node, k.db, exec.BuildConfig{
			Pool: k.db.PagePool(), WorkMem: k.db.WorkMem(), TempDir: k.cfg.TempDir,
			Spill: k.db.SpillMetrics(), Visible: liveOnly,
		})
		if err != nil {
			return 0, err
		}
		rows, err := exec.RunCtx(ctx, root)
		return len(rows), err
	})
	add(rStorage, nil, func(_ context.Context, o op) (int, error) { return -1, k.storageCall(o) })
	if k.db.Durable() {
		tr, err := openTxnRung(dir)
		if err != nil {
			return nil, err
		}
		defer tr.wal.Close()
		add(rTxn, nil, func(_ context.Context, o op) (int, error) { return -1, tr.call(o) })
	}

	// Op by op, every rung in turn: the rungs of one op run back to back, so
	// a slow stretch of the machine or a GC cycle lands on all of them alike
	// instead of on whichever rung's pass it happened to overlap.
	for i := 0; i < l.k; i++ {
		for _, r := range rungs {
			if err := l.step(ctx, r, i); err != nil {
				return nil, err
			}
		}
	}
	return l, nil
}
