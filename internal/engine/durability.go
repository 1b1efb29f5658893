package engine

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"stagedb/internal/catalog"
	"stagedb/internal/storage"
	"stagedb/internal/txn"
	"stagedb/internal/value"
)

// defaultCheckpointBytes triggers a checkpoint once the log has grown by it
// since the last checkpoint.
const defaultCheckpointBytes = 8 << 20

// OpenDB opens a database. With an empty DataDir it is NewDB; with one, the
// data file and write-ahead log live under the directory, the log is
// replayed (redo of history, undo of losers), any torn log tail is
// truncated, and orphaned spill temp files from a previous crash are swept.
func OpenDB(cfg Config) (*DB, error) {
	if cfg.DataDir == "" {
		return NewDB(cfg), nil
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = storage.OsFS{}
	}
	if err := fsys.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: create data dir: %w", err)
	}
	var swept uint64
	if cfg.TempDir == "" {
		// Spills default into the data dir, which makes leftover run files
		// from a crash ours to clean up.
		spillDir := filepath.Join(cfg.DataDir, "spill")
		if err := fsys.MkdirAll(spillDir, 0o755); err != nil {
			return nil, fmt.Errorf("engine: create spill dir: %w", err)
		}
		swept = sweepSpillFiles(fsys, spillDir)
		cfg.TempDir = spillDir
	}
	if cfg.CheckpointBytes <= 0 {
		cfg.CheckpointBytes = defaultCheckpointBytes
	}
	fstore, err := storage.OpenFileStore(fsys, filepath.Join(cfg.DataDir, "data.stagedb"))
	if err != nil {
		return nil, err
	}
	dwal, scan, err := txn.OpenDurableWAL(fsys, filepath.Join(cfg.DataDir, "wal.stagedb"), cfg.SyncEveryCommit)
	if err != nil {
		fstore.Close()
		return nil, err
	}
	db := newDBWith(cfg, fstore)
	db.fstore = fstore
	db.fsys = fsys
	db.tm.SetDurable(dwal)
	// The WAL rule: no page image reaches the data file before the log
	// records that produced it are on stable storage.
	db.pool.SetWriteBarrier(dwal.WaitDurable)
	db.sweptSpill.Store(swept)
	db.recovTorn.Store(uint64(scan.TornBytes))
	if err := db.recover(scan); err != nil {
		dwal.Close()
		fstore.Close()
		return nil, fmt.Errorf("engine: recovery: %w", err)
	}
	// Settle recovery's work into the data file and start a fresh log.
	if err := db.Checkpoint(); err != nil {
		dwal.Close()
		fstore.Close()
		return nil, fmt.Errorf("engine: post-recovery checkpoint: %w", err)
	}
	return db, nil
}

// sweepSpillFiles removes stagedb-spill-*.run leftovers and reports how many.
func sweepSpillFiles(fsys storage.FS, dir string) uint64 {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "stagedb-spill-") && strings.HasSuffix(name, ".run") {
			if fsys.Remove(filepath.Join(dir, name)) == nil {
				n++
			}
		}
	}
	return n
}

// Durable reports whether the database is backed by a data dir.
func (db *DB) Durable() bool { return db.fstore != nil }

// Close checkpoints and releases the data file and log. Volatile databases
// have nothing to release.
func (db *DB) Close() error {
	if db.fstore == nil {
		return nil
	}
	var first error
	if err := db.Checkpoint(); err != nil {
		first = err
	}
	if d := db.tm.Durable(); d != nil {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := db.fstore.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// commit finishes a transaction. In durable mode the active-table removal
// and the commit-record append must not straddle a checkpoint (the snapshot
// would miss the txn while its pages get flushed), so the commit runs under
// the checkpoint's shared lock; the group-commit wait happens inside. On
// success the txn.Manager's OnCommit hook has already stamped the MVCC
// commit timestamp (before the locks released); here only the snapshot is
// retired.
func (db *DB) commit(id txn.ID) error {
	var err error
	if db.fstore == nil {
		err = db.tm.Commit(id)
	} else {
		db.ckptMu.RLock()
		err = db.tm.Commit(id)
		db.ckptMu.RUnlock()
		defer db.maybeCheckpoint()
	}
	if err != nil {
		// The commit record never became durable: locks are released and no
		// undo runs, so stamp the id aborted to keep its versions invisible.
		// No AbortDone — the heap still carries the stamps, so the status
		// entry must never be pruned.
		db.mv.Abort(uint64(id))
	}
	db.mv.End(db.mv.SnapshotOf(uint64(id)))
	return err
}

// maybeCheckpoint checkpoints once the log has grown by its budget since the
// last checkpoint. The committer that crossed the budget runs it; one that
// finds another already at it returns rather than queue on ckptMu for a
// checkpoint it would not run (a queued writer holds back every new shared
// holder). The runner takes ckptMu, so nothing more is logged before the
// rotation, and checks the growth again under it, since the log may have
// rotated between its read and the lock.
func (db *DB) maybeCheckpoint() {
	d := db.tm.Durable()
	if d == nil || d.Growth() < db.cfg.CheckpointBytes {
		return
	}
	if !db.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	defer db.ckptBusy.Store(false)
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	if d.Growth() >= db.cfg.CheckpointBytes {
		// A failure poisons the log or leaves the old one in place; either
		// way the next commit or Close surfaces it.
		_ = db.checkpointLocked(d)
	}
}

// Checkpoint quiesces mutations, flushes the log and every dirty page,
// fsyncs the data file, and rotates the log: the new log holds only a
// checkpoint record carrying the engine snapshot, open transactions' undo
// chains included.
//
// Rotating past open transactions loses nothing (ARIES log truncation):
//   - recover reads nothing before the last checkpoint record: its losers
//     and compensated records come from the records after it, and its
//     losers' older records from the checkpoint's undo chains. The one
//     exception, the txn-id counter, restarts from the snapshot's NextTxn.
//     A CLR written after the rotation compensates a record that now lives
//     only in a chain, by LSN, the same way.
//   - The new log starts at the old end LSN, so page LSNs and the write
//     barrier never see time go backwards.
//   - Undo chains leave the active table only under ckptMu (statement
//     undo, rollback from PrepareAbort through FinishAbort, commit), and
//     every appender holds it (recovery appends before its own checkpoint),
//     so the snapshot and the rotation see one log.
func (db *DB) Checkpoint() error {
	d := db.tm.Durable()
	if d == nil {
		return nil
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.checkpointLocked(d)
}

// checkpointLocked is Checkpoint under an exclusive ckptMu.
func (db *DB) checkpointLocked(d *txn.DurableWAL) error {
	if err := d.Flush(); err != nil {
		return err
	}
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	if err := db.fstore.Sync(); err != nil {
		return fmt.Errorf("engine: checkpoint data sync: %w", err)
	}
	st := db.checkpointState()
	payload, err := txn.EncodeCheckpoint(st)
	if err != nil {
		return err
	}
	return d.Rotate(txn.Record{Kind: txn.RecCheckpoint, After: payload})
}

// checkpointState snapshots everything recovery needs; callers hold ckptMu
// exclusively, so heaps and the active table are quiescent.
func (db *DB) checkpointState() *txn.CheckpointState {
	next, free := db.fstore.AllocState()
	st := &txn.CheckpointState{
		NextTxn:   uint64(db.tm.NextID()),
		NextPage:  uint32(next),
		FreePages: pagesToU32(free),
	}
	names := db.cat.List()
	sort.Strings(names)
	for _, name := range names {
		tbl, err := db.cat.Get(name)
		if err != nil {
			continue
		}
		db.mu.RLock()
		h := db.heaps[name]
		db.mu.RUnlock()
		if h == nil {
			continue
		}
		st.Tables = append(st.Tables, checkpointTable(tbl, h.PageIDs()))
	}
	for id, ops := range db.tm.ActiveSnapshot() {
		ct := txn.CheckpointTxn{ID: uint64(id)}
		for _, op := range ops {
			ct.Ops = append(ct.Ops, txn.ToOp(op))
		}
		st.Active = append(st.Active, ct)
	}
	sort.Slice(st.Active, func(i, j int) bool { return st.Active[i].ID < st.Active[j].ID })
	return st
}

func checkpointTable(tbl *catalog.Table, pages []storage.PageID) txn.CheckpointTable {
	ct := txn.CheckpointTable{Name: tbl.Name, Pages: pagesToU32(pages)}
	for _, c := range tbl.Schema.Columns {
		ct.Columns = append(ct.Columns, txn.CheckpointColumn{Name: c.Name, Type: int(c.Type), PrimaryKey: c.PrimaryKey})
	}
	for _, ix := range tbl.Indexes {
		ct.Indexes = append(ct.Indexes, txn.CheckpointIndex{Name: ix.Name, Column: ix.Column, Unique: ix.Unique})
	}
	return ct
}

func pagesToU32(ids []storage.PageID) []uint32 {
	out := make([]uint32, len(ids))
	for i, id := range ids {
		out[i] = uint32(id)
	}
	return out
}

func u32ToPages(ids []uint32) []storage.PageID {
	out := make([]storage.PageID, len(ids))
	for i, id := range ids {
		out[i] = storage.PageID(id)
	}
	return out
}

// --- durable DDL / allocation logging ---

// installHeapHooks wires a heap's page allocations into the log so recovery
// can rebuild the page list. No-op in volatile mode.
func (db *DB) installHeapHooks(name string, h *storage.Heap) {
	d := db.tm.Durable()
	if d == nil {
		return
	}
	h.SetAllocHook(func(id storage.PageID) error {
		_, err := d.Append(txn.Record{Kind: txn.RecAllocPage, Table: name, RID: storage.RID{Page: id}})
		return err
	})
}

func (db *DB) logCreateTable(id txn.ID, tbl *catalog.Table) error {
	if db.tm.Durable() == nil {
		return nil
	}
	ct := checkpointTable(tbl, nil)
	payload, err := txn.EncodeTable(&ct)
	if err != nil {
		return err
	}
	return db.tm.LogDDL(id, txn.Record{Kind: txn.RecCreateTable, Table: tbl.Name, After: payload})
}

func (db *DB) logCreateIndex(id txn.ID, ix *catalog.Index) error {
	if db.tm.Durable() == nil {
		return nil
	}
	ci := txn.CheckpointIndex{Name: ix.Name, Column: ix.Column, Unique: ix.Unique}
	payload, err := txn.EncodeIndex(&ci)
	if err != nil {
		return err
	}
	return db.tm.LogDDL(id, txn.Record{Kind: txn.RecCreateIndex, Table: ix.Table, After: payload})
}

func (db *DB) logDropTable(id txn.ID, name string, pages []storage.PageID) error {
	if db.tm.Durable() == nil {
		return nil
	}
	if err := db.tm.LogDDL(id, txn.Record{Kind: txn.RecDropTable, Table: name}); err != nil {
		return err
	}
	for _, pg := range pages {
		db.fstore.FreePage(pg)
		if err := db.tm.LogDDL(id, txn.Record{Kind: txn.RecFreePage, RID: storage.RID{Page: pg}}); err != nil {
			return err
		}
	}
	return nil
}

// --- recovery ---

// recover replays the scanned log: restore the last checkpoint's snapshot,
// redo history after it (DDL and page operations alike, guarded by each
// page's LSN), and undo the losers — transactions with records but no
// commit — newest-first through the live rollback's undoOne, which writes
// CLRs so a crash during recovery is itself recoverable and skips tables
// dropped since the operation (their pages may belong to another table
// now). Indexes are rebuilt from the settled heaps at the end.
func (db *DB) recover(scan *txn.ScanResult) error {
	recs := scan.Records
	losers := make(map[txn.ID][]txn.Record)
	start := 0
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind == txn.RecCheckpoint {
			st, err := txn.DecodeCheckpoint(recs[i].After)
			if err != nil {
				return err
			}
			if err := db.applyCheckpoint(st, losers); err != nil {
				return err
			}
			start = i + 1
			break
		}
	}
	// Advance the txn-id counter past every id in the log, not just the
	// checkpoint's snapshot: ids handed out after the checkpoint appear only
	// in the tail records. A reused id aliases the version stamps the old
	// transaction left in the heap — if the new incarnation aborts, the old
	// incarnation's committed versions go invisible with it (and a later
	// re-insert of the same key duplicates the row after the next restart).
	for _, rec := range recs {
		if rec.Txn != 0 {
			db.tm.SetNext(rec.Txn + 1)
		}
	}
	compensated := make(map[uint64]bool)
	for _, rec := range recs[start:] {
		switch rec.Kind {
		case txn.RecCreateTable:
			ct, err := txn.DecodeTable(rec.After)
			if err != nil {
				return err
			}
			if err := db.restoreTable(ct); err != nil {
				return err
			}
		case txn.RecCreateIndex:
			ci, err := txn.DecodeIndex(rec.After)
			if err != nil {
				return err
			}
			if err := db.restoreIndex(rec.Table, ci); err != nil {
				return err
			}
		case txn.RecDropTable:
			db.redoDropTable(rec.Table)
		case txn.RecAllocPage:
			db.fstore.MarkAllocated(rec.RID.Page)
			db.mu.RLock()
			h := db.heaps[rec.Table]
			db.mu.RUnlock()
			if h != nil {
				h.AppendPage(rec.RID.Page)
			}
		case txn.RecFreePage:
			db.fstore.FreePage(rec.RID.Page)
		case txn.RecInsert, txn.RecDelete, txn.RecUpdate:
			if err := db.redoOne(rec); err != nil {
				return err
			}
			if rec.CLR {
				if rec.UndoOf != 0 {
					compensated[rec.UndoOf] = true
				}
			} else {
				losers[rec.Txn] = append(losers[rec.Txn], rec)
			}
		case txn.RecCommit:
			delete(losers, rec.Txn)
		case txn.RecAbort:
			// Abort records are logged after the undo's CLRs, so the undo is
			// already part of redone history.
			delete(losers, rec.Txn)
		}
	}
	// Undo losers newest-first across transactions (ARIES single backward
	// pass), skipping operations a CLR already compensated.
	var undo []txn.Record
	for _, ops := range losers {
		undo = append(undo, ops...)
	}
	sort.Slice(undo, func(i, j int) bool { return undo[i].LSN > undo[j].LSN })
	d := db.tm.Durable()
	for _, rec := range undo {
		if compensated[rec.LSN] {
			continue
		}
		if err := db.undoOne(rec); err != nil {
			return err
		}
		db.recovUndo.Add(1)
	}
	for id := range losers {
		if _, err := d.Append(txn.Record{Txn: id, Kind: txn.RecAbort}); err != nil {
			return err
		}
		db.recovLosers.Add(1)
	}
	if err := d.Flush(); err != nil {
		return err
	}
	// Settle derived state: live counters and secondary indexes.
	db.mu.RLock()
	heaps := make([]*storage.Heap, 0, len(db.heaps))
	for _, h := range db.heaps {
		heaps = append(heaps, h)
	}
	db.mu.RUnlock()
	for _, h := range heaps {
		if err := h.RecomputeLive(); err != nil {
			return err
		}
	}
	return db.rebuildIndexes()
}

// applyCheckpoint restores the snapshot a checkpoint record carries.
func (db *DB) applyCheckpoint(st *txn.CheckpointState, losers map[txn.ID][]txn.Record) error {
	db.fstore.SetAllocState(storage.PageID(st.NextPage), u32ToPages(st.FreePages))
	db.tm.SetNext(txn.ID(st.NextTxn))
	for i := range st.Tables {
		if err := db.restoreTable(&st.Tables[i]); err != nil {
			return err
		}
	}
	for _, a := range st.Active {
		id := txn.ID(a.ID)
		for _, op := range a.Ops {
			losers[id] = append(losers[id], op.ToRecord(id))
		}
	}
	return nil
}

// restoreTable rebuilds a table's catalog entry, heap shell, and index
// shells. Tolerates the table already existing (replay after a checkpoint
// that carried it would otherwise fail).
func (db *DB) restoreTable(ct *txn.CheckpointTable) error {
	cols := make([]catalog.Column, len(ct.Columns))
	for i, c := range ct.Columns {
		cols[i] = catalog.Column{Name: c.Name, Type: value.Type(c.Type), PrimaryKey: c.PrimaryKey}
	}
	h := storage.NewHeap(db.pool)
	h.RestorePages(u32ToPages(ct.Pages))
	if _, err := db.addTable(ct.Name, cols, h); err != nil {
		db.mu.RLock()
		_, have := db.heaps[ct.Name]
		db.mu.RUnlock()
		if have {
			return nil
		}
		return err
	}
	for i := range ct.Indexes {
		if err := db.restoreIndex(ct.Name, &ct.Indexes[i]); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) restoreIndex(table string, ci *txn.CheckpointIndex) error {
	if err := db.addIndex(table, ci.Name, ci.Column, ci.Unique); err != nil {
		db.mu.RLock()
		_, have := db.indexes[ci.Name]
		db.mu.RUnlock()
		if !have {
			return err
		}
	}
	return nil
}

func (db *DB) redoDropTable(name string) {
	if tbl, err := db.cat.Get(name); err == nil {
		db.removeTable(tbl)
	}
}

// redoOne repeats one page operation if the page has not seen it yet (the
// pageLSN guard makes redo idempotent).
func (db *DB) redoOne(rec txn.Record) error {
	pg, err := db.pool.Pin(rec.RID.Page)
	if err != nil {
		return err
	}
	if pg.LSN() >= rec.LSN {
		db.pool.Unpin(rec.RID.Page, false)
		return nil
	}
	switch rec.Kind {
	case txn.RecInsert, txn.RecUpdate:
		err = pg.PutAt(rec.RID.Slot, rec.After)
	case txn.RecDelete:
		err = pg.ClearAt(rec.RID.Slot)
	}
	if err == nil {
		pg.SetLSN(rec.LSN)
		db.recovRedo.Add(1)
	}
	db.pool.Unpin(rec.RID.Page, err == nil)
	return err
}

// rebuildIndexes repopulates every index from its heap — cheaper and
// simpler than logging index mutations, at the cost of an O(data) scan on
// recovery only. The same pass sweeps dead versions: after undoing the
// losers every version stamp left in the heap belongs to a committed
// transaction, so a non-zero xmax marks a version invisible to every future
// snapshot (the fresh MVCC manager treats surviving ids as committed at 0).
// Those slots are cleared unlogged — the post-recovery checkpoint persists
// the settled pages — and never indexed, so recovery leaves no orphan
// versions behind.
func (db *DB) rebuildIndexes() error {
	for _, name := range db.cat.List() {
		tbl, err := db.cat.Get(name)
		if err != nil {
			continue
		}
		db.mu.RLock()
		h := db.heaps[name]
		db.mu.RUnlock()
		if h == nil {
			continue
		}
		var dead []storage.RID
		if err := db.fillIndexes(tbl, h, tbl.Indexes, func(rid storage.RID, xmax uint64) bool {
			if xmax != 0 {
				dead = append(dead, rid)
			}
			return xmax == 0
		}); err != nil {
			return err
		}
		for _, rid := range dead {
			//stagedbvet:ignore walbarrier recovery-time sweep of already-superseded versions: idempotent physical cleanup, re-derived from xmax stamps on the next recovery pass, not part of any transaction's redo/undo
			if err := h.Delete(rid); err != nil {
				return err
			}
			db.sweptVers.Add(1)
		}
	}
	return nil
}

// WALCounters merges the durable log's counters with the recovery outcome —
// the "wal" pseudo-stage in staged snapshots and the CLI's \stages. Nil in
// volatile mode.
func (db *DB) WALCounters() map[string]int64 {
	d := db.tm.Durable()
	if d == nil {
		return nil
	}
	s := d.Stats()
	return map[string]int64{
		"appends":          int64(s.Appends),
		"flushes":          int64(s.Flushes),
		"syncs":            int64(s.Syncs),
		"synced_bytes":     int64(s.SyncedBytes),
		"commits":          int64(s.Commits),
		"commit_groups":    int64(s.Groups),
		"grouped_commits":  int64(s.GroupSum),
		"group_max":        int64(s.GroupMax),
		"checkpoints":      int64(s.Checkpoints),
		"end_lsn":          int64(s.EndLSN),
		"flushed_lsn":      int64(s.FlushedLSN),
		"recov_redo":       int64(db.recovRedo.Load()),
		"recov_undo":       int64(db.recovUndo.Load()),
		"recov_losers":     int64(db.recovLosers.Load()),
		"recov_torn_bytes": int64(db.recovTorn.Load()),
		"swept_spill":      int64(db.sweptSpill.Load()),
		"swept_versions":   int64(db.sweptVers.Load()),
	}
}
