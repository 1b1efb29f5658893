// Golden file for the walbarrier analyzer: every heap/page mutation in an
// engine package must be covered by a logging callback, a dominating WAL
// append, or a recovery-replay txn.Record parameter.
package engine

import (
	"walbarrier/storage"
	"walbarrier/txn"
)

// badRawInsert mutates the heap with no WAL append anywhere in sight.
func badRawInsert(h *storage.Heap, rec []byte) {
	h.Insert(rec) // want `page mutation Heap.Insert is not preceded by a WAL append on every path \(WAL-before-data\)`
}

// badNilCallback opts out of the logging protocol without a dominating
// append to justify it.
func badNilCallback(h *storage.Heap, rec []byte) {
	h.InsertLogged(rec, nil) // want `page mutation Heap.InsertLogged is not preceded by a WAL append on every path \(WAL-before-data\)`
}

// badEmptyCallback wires a callback that never reaches the WAL, so the
// mutation is as unlogged as a nil callback.
func badEmptyCallback(h *storage.Heap, rec []byte) {
	h.InsertLogged(rec, func(rid storage.RID) (uint64, error) { // want `log callback passed to Heap.InsertLogged never appends a WAL record`
		return 0, nil
	})
}

// badBranchOnlyAppend logs on the urgent branch but mutates on both: the
// quiet path writes the page with no record describing it.
func badBranchOnlyAppend(w *txn.WAL, pg *storage.Page, rec []byte, urgent bool) error {
	if urgent {
		if _, err := w.Append(txn.Record{After: rec}); err != nil {
			return err
		}
	}
	return pg.PutAt(0, rec) // want `page mutation Page.PutAt is not preceded by a WAL append on every path \(WAL-before-data\)`
}

// okLoggedCallback routes the mutation through the logging callback: the
// heap appends the record under the page latch and reverts if it fails.
func okLoggedCallback(h *storage.Heap, m *txn.Manager, rec []byte) error {
	_, err := h.InsertLogged(rec, func(rid storage.RID) (uint64, error) {
		return m.LogOp(txn.Record{RID: rid, After: rec})
	})
	return err
}

// okDominatingAppend appends the compensation record before clearing the
// slot — the recovery-undo shape.
func okDominatingAppend(m *txn.Manager, pg *storage.Page, before []byte, slot uint16) error {
	if _, err := m.AppendCLR(txn.Record{Before: before}); err != nil {
		return err
	}
	return pg.ClearAt(slot)
}

// okDurableAppendFirst covers a mutation with the file-backed WAL too.
func okDurableAppendFirst(w *txn.DurableWAL, pg *storage.Page, rec []byte) error {
	if _, err := w.Append(txn.Record{After: rec}); err != nil {
		return err
	}
	return pg.PutAt(0, rec)
}

// okReplay applies records that are already in the log: recovery redo is
// exempt and must not re-append.
func okReplay(h *storage.Heap, recs []txn.Record) error {
	for _, r := range recs {
		if _, err := h.Insert(r.After); err != nil {
			return err
		}
	}
	return nil
}

// okUndoOne is exempt through its single-record parameter.
func okUndoOne(h *storage.Heap, rec txn.Record) error {
	return h.Delete(rec.RID)
}
