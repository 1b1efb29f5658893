package engine

// dml.go writes row versions: INSERT, UPDATE and DELETE, the location of
// their targets, the xmax stamp, and the undo of each of those operations.
// Every version passes through one writer (writeVersion), every index entry
// through one upkeep helper (indexVersion), and every walk of a heap's
// version stamps outside UPDATE's target walk through walkVersions.

import (
	"context"
	"fmt"

	"stagedb/internal/catalog"
	"stagedb/internal/mvcc"
	"stagedb/internal/plan"
	"stagedb/internal/sql"
	"stagedb/internal/storage"
	"stagedb/internal/txn"
	"stagedb/internal/value"
)

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
	// colIdx maps each VALUES position to its table column: the column list
	// when there is one, else the table's columns in order.
	width := len(tbl.Schema.Columns)
	colIdx := make([]int, len(stmt.Columns))
	for i, name := range stmt.Columns {
		if colIdx[i] = tbl.Schema.ColumnIndex(name); colIdx[i] < 0 {
			return nil, fmt.Errorf("engine: table %s has no column %s", stmt.Table, name)
		}
	}
	if len(stmt.Columns) == 0 {
		colIdx = make([]int, width)
		for i := range colIdx {
			colIdx[i] = i
		}
	}
	var affected int64
	for _, exprRow := range stmt.Rows {
		if len(exprRow) != len(colIdx) {
			return nil, fmt.Errorf("engine: INSERT arity mismatch (%d values, %d columns)", len(exprRow), len(colIdx))
		}
		row := make(value.Row, width)
		for i := range row {
			row[i] = value.NewNull()
		}
		for i, e := range exprRow {
			if row[colIdx[i]], err = constValue(e); err != nil {
				return nil, err
			}
		}
		norm, err := tbl.Schema.Validate(row)
		if err != nil {
			return nil, err
		}
		if err := db.writeVersion(id, tbl, h, norm, nil); err != nil {
			return nil, err
		}
		affected++
	}
	return &Result{Affected: affected}, nil
}

// constValue evaluates one VALUES item. A literal is taken as is (a bulk
// load is mostly literals); anything else binds with no columns in scope, so
// VALUES takes every constant form WHERE takes.
func constValue(e sql.Expr) (value.Value, error) {
	if lit, ok := e.(*sql.Literal); ok {
		return lit.Val, nil
	}
	bound, err := plan.BindConst(e)
	if err != nil {
		return value.Value{}, err
	}
	return bound.Eval(nil)
}

// writeVersion writes row as a new version stamped (xmin=id, xmax=0): it
// checks the primary key free, stamps prev — the version an UPDATE replaces,
// nil for an INSERT — as superseded, stores and logs the new version, and
// indexes it. The WAL record is written while the heap page is still pinned
// (the heap reverts the page change if logging fails), so a dirty page never
// reaches disk carrying a row the log does not know about.
//
// The key is checked only when prev does not already hold it: dead versions
// stay indexed until vacuum, so checking an unchanged key would probe every
// old version of it. Each row is checked against the latest state, as a
// non-deferrable unique constraint is: `SET id = id + 1` over adjacent keys
// fails with a duplicate key.
func (db *DB) writeVersion(id txn.ID, tbl *catalog.Table, h *storage.Heap, row value.Row, prev *mvTarget) error {
	if pk := tbl.Schema.PrimaryKeyIndex(); pk >= 0 && (prev == nil || !value.Equal(row[pk], prev.row[pk])) {
		if ixMeta := tbl.IndexOn(tbl.Schema.Columns[pk].Name); ixMeta != nil && ixMeta.Unique {
			if bt, err := db.IndexOf(ixMeta); err == nil {
				if err := db.checkPKFree(id, tbl, h, bt, row[pk]); err != nil {
					return err
				}
			}
		}
	}
	if prev != nil {
		if err := db.supersede(id, tbl, h, prev.rid, prev.rec); err != nil {
			return err
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
	return db.indexVersion(tbl, row, rid, true)
}

// indexVersion adds (add) or removes the entries of the version at rid,
// holding row, in every index of tbl.
func (db *DB) indexVersion(tbl *catalog.Table, row value.Row, rid storage.RID, add bool) error {
	for _, ixMeta := range tbl.Indexes {
		bt, err := db.IndexOf(ixMeta)
		if err != nil {
			return err
		}
		if add {
			bt.Insert(row[ixMeta.ColIdx], rid)
		} else {
			bt.Delete(row[ixMeta.ColIdx], rid)
		}
	}
	return nil
}

// fillIndexes builds a B-tree for each of ixs from the versions of h that
// keep accepts (nil: every version) and publishes them once the walk has
// succeeded. CREATE INDEX and recovery's index rebuild fill through here.
func (db *DB) fillIndexes(tbl *catalog.Table, h *storage.Heap, ixs []*catalog.Index, keep func(rid storage.RID, xmax uint64) bool) error {
	trees := make([]*storage.BTree, len(ixs))
	for i := range trees {
		trees[i] = storage.NewBTree()
	}
	if err := walkVersions(h, func(rid storage.RID, xmax uint64, rec []byte) error {
		if (keep != nil && !keep(rid, xmax)) || len(ixs) == 0 {
			return nil
		}
		row, err := decodeVersioned(tbl.Schema, rec)
		if err != nil {
			return err
		}
		for i, ix := range ixs {
			trees[i].Insert(row[ix.ColIdx], rid)
		}
		return nil
	}); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for i, ix := range ixs {
		db.indexes[ix.Name] = trees[i]
	}
	return nil
}

// walkVersions calls visit with the RID, xmax stamp and bytes of every
// record of h, in heap order, and returns the first error of the scan, of a
// version header, or of visit (which stops the walk). visit runs under the
// heap's read latch: it must not mutate h, and rec is valid only during the
// call.
func walkVersions(h *storage.Heap, visit func(rid storage.RID, xmax uint64, rec []byte) error) error {
	var verr error
	if err := h.Scan(func(rid storage.RID, rec []byte) bool {
		_, xmax, err := storage.VersionOf(rec)
		if err == nil {
			err = visit(rid, xmax, rec)
		}
		verr = err
		return err == nil
	}); err != nil {
		return err
	}
	return verr
}

// checkPKFree enforces primary-key uniqueness against the latest state.
// Under the table's exclusive lock every version stamp from another
// transaction is decided (committed, or aborted-and-undone), so each index
// hit resolves cleanly: a dead version (xmax set) never conflicts, a live
// version visible to our snapshot (or our own) is a duplicate, and a live
// version committed after our snapshot began is a first-committer-wins
// conflict — our snapshot cannot prove the key free, so the write fails
// retryably instead of silently duplicating the key.
func (db *DB) checkPKFree(id txn.ID, tbl *catalog.Table, h *storage.Heap, bt *storage.BTree, key value.Value) error {
	snap := db.mv.SnapshotOf(uint64(id))
	for _, rid := range bt.Search(key) {
		live := false
		var xmin, xmax uint64
		if err := h.Visit(rid, func(rec []byte) error {
			var err error
			xmin, xmax, err = storage.VersionOf(rec)
			live = true
			return err
		}); err != nil {
			return err
		}
		if !live {
			continue // slot already vacuumed
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

// mvTarget is one version selected for superseding by an UPDATE or DELETE,
// or for reclaiming by VACUUM: its location, decoded payload, and the full
// versioned record (the before-image of the xmax stamp or of the delete).
type mvTarget struct {
	rid storage.RID
	row value.Row
	rec []byte
}

// newTarget decodes the versioned record rec at rid and copies it: rec
// aliases a heap page that changes once the walk that found it lets go.
func newTarget(schema catalog.Schema, rid storage.RID, rec []byte) (mvTarget, error) {
	row, err := decodeVersioned(schema, rec)
	if err != nil {
		return mvTarget{}, err
	}
	return mvTarget{rid: rid, row: row, rec: append([]byte(nil), rec...)}, nil
}

// collectTargets binds where (nil: every row) against tbl and scans the heap
// for versions visible to transaction id's snapshot that match it. A visible match that already carries a deleter
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
func (db *DB) collectTargets(id txn.ID, tbl *catalog.Table, h *storage.Heap, where sql.Expr) ([]mvTarget, error) {
	snap := db.mv.SnapshotOf(uint64(id))
	if snap == nil {
		return nil, fmt.Errorf("engine: transaction %d has no snapshot", id)
	}
	w := &targetWalk{mv: db.mv, snap: snap, tbl: tbl}
	if where != nil {
		pred, err := plan.BindTableExpr(tbl, where)
		if err != nil {
			return nil, err
		}
		width := len(tbl.Schema.Columns)
		w.match = plan.CompilePredicate(pred)
		if w.dec, err = storage.NewRowDecoder(tbl.Schema, plan.ExprCols(pred, width)); err != nil {
			return nil, err
		}
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
// compiled predicate (nil: every visible version matches) with the decoder
// of the columns it reads and the probe row they are decoded into, and what
// the walk found.
type targetWalk struct {
	mv    *mvcc.Manager
	snap  *mvcc.Snapshot
	tbl   *catalog.Table
	match plan.CompiledPredicate
	dec   storage.RowDecoder
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
		ok, err := w.matches(rec[storage.VerHdrLen:])
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
	if xmax != 0 {
		w.mv.Conflict()
		w.err = errSuperseded(rid, w.tbl.Name, xmax)
		return false
	}
	tg, err := newTarget(w.tbl.Schema, rid, rec)
	if err != nil {
		w.err = err
		return false
	}
	w.targets = append(w.targets, tg)
	return true
}

// matches decodes the predicate's columns of a record's payload into the
// probe row and evaluates the predicate on it.
//
//stagedb:hot
func (w *targetWalk) matches(payload []byte) (bool, error) {
	if err := w.dec.Decode(payload, w.probe); err != nil {
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
// values is written alongside. Index entries for the old version remain
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
	targets, err := db.collectTargets(id, tbl, h, stmt.Where)
	if err != nil {
		return nil, err
	}
	for i := range targets {
		tg := &targets[i]
		newRow := tg.row.Clone()
		for _, set := range sets {
			if newRow[set.col], err = set.expr.Eval(tg.row); err != nil {
				return nil, err
			}
		}
		norm, err := tbl.Schema.Validate(newRow)
		if err != nil {
			return nil, err
		}
		if err := db.writeVersion(id, tbl, h, norm, tg); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: int64(len(targets))}, nil
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
	targets, err := db.collectTargets(id, tbl, h, stmt.Where)
	if err != nil {
		return nil, err
	}
	for _, tg := range targets {
		if err := db.supersede(id, tbl, h, tg.rid, tg.rec); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: int64(len(targets))}, nil
}

// undoStatement rolls transaction id back to undo point mark: the records
// a failed statement logged are undone newest first, each with a CLR, as
// rollback undoes them, and leave the transaction's undo chain. Recovery
// needs nothing more: it skips the records those CLRs compensate.
func (db *DB) undoStatement(id txn.ID, mark int) error {
	db.ckptMu.RLock()
	defer db.ckptMu.RUnlock()
	return db.tm.RollbackTo(id, mark, db.undoOne)
}

// rollback aborts a transaction and applies its undo records, writing a
// compensation log record (CLR) for every page operation the undo performs
// — so a crash mid-rollback replays the completed part of the undo instead
// of redoing the aborted work. The txn's locks stay held until the undo is
// fully applied (FinishAbort releases them).
func (db *DB) rollback(id txn.ID) error {
	// The exclusion must cover PrepareAbort through FinishAbort: a
	// checkpoint between them would snapshot the txn as neither active nor
	// undone and rotate its records away, and recovery would lose the
	// remaining undo.
	db.ckptMu.RLock()
	defer db.ckptMu.RUnlock()
	// Stamp aborted before undo starts: from here no snapshot sees the
	// transaction's versions, so readers never observe a half-undone txn.
	db.mv.Abort(uint64(id))
	snap := db.mv.SnapshotOf(uint64(id))
	undo, wrote, err := db.tm.PrepareAbort(id)
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
	if !wrote {
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

// undoOne reverses one logged page operation with a CLR: an insert's
// version is deleted and unindexed, a deleted (vacuumed) version is put
// back and reindexed, an xmax stamp is restored in place.
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
		return db.indexVersion(tbl, row, rec.RID, false)
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
		return db.indexVersion(tbl, row, rid, true)
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
