// Package storage is a stub of stagedb/internal/storage for the walbarrier
// golden files: the heap and page mutation surface, including the logging
// callback seam.
package storage

// RID addresses one record slot.
type RID struct {
	PageID uint32
	Slot   uint16
}

// LogFunc appends the WAL record describing a mutation at rid and returns
// the record's LSN.
type LogFunc func(rid RID) (uint64, error)

// Heap stands in for the slotted-page heap.
type Heap struct{}

// Insert appends a record without logging.
func (h *Heap) Insert(rec []byte) (RID, error) { return RID{}, nil }

// InsertLogged appends a record, calling logf under the page latch.
func (h *Heap) InsertLogged(rec []byte, logf LogFunc) (RID, error) { return RID{}, nil }

// UpdateLogged rewrites the record at rid, calling logf under the page latch.
func (h *Heap) UpdateLogged(rid RID, rec []byte, logf LogFunc) (bool, error) { return true, nil }

// Delete clears the record at rid without logging.
func (h *Heap) Delete(rid RID) error { return nil }

// DeleteLogged clears the record at rid, calling logf under the page latch.
func (h *Heap) DeleteLogged(rid RID, logf LogFunc) error { return nil }

// Page stands in for one slotted page.
type Page struct{}

// PutAt writes rec into slot.
func (p *Page) PutAt(slot uint16, rec []byte) error { return nil }

// ClearAt tombstones slot.
func (p *Page) ClearAt(slot uint16) error { return nil }
