package engine

// vacuum.go is the MVCC garbage collector. UPDATE and DELETE never remove
// heap records — they stamp an xmax and (for UPDATE) insert a successor —
// so dead versions accumulate until vacuum reclaims them. A version is
// reclaimable once its deleter committed at or before the oldest active
// snapshot's begin timestamp: no present snapshot can see it, and every
// future snapshot begins later. Reclamation runs as an ordinary system
// transaction — exclusive table lock, logged physical deletes, index entry
// removal — so crash recovery and the WAL invariants hold unchanged.

import (
	"context"

	"stagedb/internal/catalog"
	"stagedb/internal/mvcc"
	"stagedb/internal/storage"
	"stagedb/internal/txn"
)

// mvccCounters renders mvcc.Stats for stage snapshots (the \stages view).
func mvccCounters(st mvcc.Stats) map[string]int64 {
	return map[string]int64{
		"begins":           st.Begins,
		"commits":          st.Commits,
		"aborts":           st.Aborts,
		"conflicts":        st.Conflicts,
		"versions_pruned":  st.VersionsPruned,
		"active_snapshots": int64(st.ActiveSnapshots),
		"status_entries":   int64(st.StatusEntries),
		"oldest_active_ts": int64(st.OldestActiveTS),
	}
}

// Vacuum reclaims dead versions across every table, then prunes the
// transaction-status table. It returns the number of versions removed.
// Vacuum takes each table's exclusive lock in turn (briefly blocking
// writers of that table, never readers) and honors ctx while waiting.
func (db *DB) Vacuum(ctx context.Context) (int64, error) {
	var total int64
	for _, name := range db.cat.List() {
		n, err := db.VacuumTable(ctx, name)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// VacuumTable reclaims dead versions of one table inside its own system
// transaction and returns the number of versions removed.
func (db *DB) VacuumTable(ctx context.Context, table string) (int64, error) {
	tbl, err := db.cat.Get(table)
	if err != nil {
		return 0, err
	}
	id := db.begin()
	n, err := db.vacuumTable(ctx, id, tbl)
	if err != nil {
		db.rollback(id)
		return 0, err
	}
	if err := db.commit(id); err != nil {
		return 0, err
	}
	db.mv.Pruned(n)
	db.mv.Prune()
	return n, nil
}

// TableVersions counts one table's physical heap records by version state:
// live records (xmax = 0, the latest state) and dead ones (superseded or
// deleted). Dead returning to zero after Vacuum with no snapshots open is
// the no-orphan-versions invariant the crash harness asserts.
func (db *DB) TableVersions(table string) (live, dead int64, err error) {
	tbl, err := db.cat.Get(table)
	if err != nil {
		return 0, 0, err
	}
	h, err := db.HeapOf(tbl)
	if err != nil {
		return 0, 0, err
	}
	err = walkVersions(h, func(_ storage.RID, xmax uint64, _ []byte) error {
		if xmax == 0 {
			live++
		} else {
			dead++
		}
		return nil
	})
	return live, dead, err
}

func (db *DB) vacuumTable(ctx context.Context, id txn.ID, tbl *catalog.Table) (int64, error) {
	if err := db.tm.Locks.Lock(ctx, id, "table:"+tbl.Name, txn.Exclusive); err != nil {
		return 0, err
	}
	db.ckptMu.RLock()
	defer db.ckptMu.RUnlock()
	h, err := db.HeapOf(tbl)
	if err != nil {
		return 0, err
	}
	// The horizon is pinned by our own snapshot among others, so it cannot
	// advance past concurrent readers while we hold it.
	horizon := db.mv.OldestActiveTS()
	// Collect first: the walk runs under the heap's read latch and must not
	// mutate.
	var victims []mvTarget
	if err := walkVersions(h, func(rid storage.RID, xmax uint64, rec []byte) error {
		if xmax == 0 {
			return nil // live in the latest state
		}
		ts, committed := db.mv.CommittedTS(xmax)
		if !committed || ts > horizon {
			return nil // deleter unresolved or visible to some snapshot
		}
		v, err := newTarget(tbl.Schema, rid, rec)
		victims = append(victims, v)
		return err
	}); err != nil {
		return 0, err
	}
	var n int64
	for _, v := range victims {
		if err := h.DeleteLogged(v.rid, func(rid storage.RID) (uint64, error) {
			return db.tm.LogOp(txn.Record{Txn: id, Kind: txn.RecDelete, Table: tbl.Name,
				RID: rid, Before: v.rec})
		}); err != nil {
			return n, err
		}
		if err := db.indexVersion(tbl, v.row, v.rid, false); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
