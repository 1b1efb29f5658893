package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Heap is an unordered record file over the buffer pool: a list of slotted
// pages with a simple "last page with room" insertion policy.
type Heap struct {
	mu    sync.Mutex
	pool  *Pool
	pages []PageID
	live  atomic.Int64 // live records, maintained O(1) by Insert/Delete

	// latch serializes raw page-byte access: mutators (insert/delete/update
	// apply sections) hold it exclusively, readers (Get/Scan/ScanPage/Count)
	// hold it shared per page visit. Under MVCC, snapshot readers scan with
	// no table lock while a writer mutates other slots of the same pages;
	// the latch keeps those byte accesses from tearing. It is held across
	// the mutation's WAL-append callback so the log order matches the page
	// mutation order.
	latch sync.RWMutex

	// onAlloc, when set, runs under the heap mutex whenever the heap grows
	// by a page. The durable engine logs an AllocPage record here so
	// recovery can rebuild the page list and the store's free map.
	onAlloc func(id PageID) error
}

// NewHeap returns an empty heap file backed by pool.
func NewHeap(pool *Pool) *Heap {
	return &Heap{pool: pool}
}

// SetAllocHook registers fn, invoked whenever the heap appends a new page.
// A non-nil error abandons the allocation and fails the triggering insert.
func (h *Heap) SetAllocHook(fn func(id PageID) error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.onAlloc = fn
}

// LogFunc appends a WAL record for a page mutation the heap has staged (or
// is about to apply) and returns the record's LSN, which the heap stamps
// onto the page before unpinning — the pageLSN discipline recovery's redo
// compares against. A zero LSN leaves the stamp unchanged.
type LogFunc func(rid RID) (uint64, error)

// Insert stores rec and returns its RID.
func (h *Heap) Insert(rec []byte) (RID, error) { return h.InsertLogged(rec, nil) }

// InsertLogged stores rec, invoking logf with the chosen RID while the page
// is still pinned. If logging fails the page change is reverted, so storage
// never holds a row the log does not know about.
func (h *Heap) InsertLogged(rec []byte, logf LogFunc) (RID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Try the last page first; the common case for bulk loads.
	if n := len(h.pages); n > 0 {
		id := h.pages[n-1]
		pg, err := h.pool.Pin(id)
		if err != nil {
			return RID{}, err
		}
		if pg.FreeSpace() >= len(rec) {
			return h.insertPinned(pg, id, rec, logf)
		}
		h.pool.Unpin(id, false)
	}
	pg, id, err := h.pool.NewPage()
	if err != nil {
		return RID{}, err
	}
	if h.onAlloc != nil {
		if err := h.onAlloc(id); err != nil {
			h.pool.Unpin(id, false)
			return RID{}, err
		}
	}
	h.pages = append(h.pages, id)
	return h.insertPinned(pg, id, rec, logf)
}

// insertPinned applies and logs one insert into the already-pinned page,
// unpinning it on every path.
func (h *Heap) insertPinned(pg *Page, id PageID, rec []byte, logf LogFunc) (RID, error) {
	h.latch.Lock()
	slot, err := pg.Insert(rec)
	if err != nil {
		h.latch.Unlock()
		h.pool.Unpin(id, false)
		return RID{}, err
	}
	rid := RID{Page: id, Slot: slot}
	if logf != nil {
		lsn, err := logf(rid)
		if err != nil {
			pg.revertInsert(slot)
			h.latch.Unlock()
			h.pool.Unpin(id, false)
			return RID{}, err
		}
		if lsn != 0 {
			pg.SetLSN(lsn)
		}
	}
	h.latch.Unlock()
	h.pool.Unpin(id, true)
	h.live.Add(1)
	return rid, nil
}

// Get copies the record at rid.
func (h *Heap) Get(rid RID) ([]byte, error) {
	pg, err := h.pool.Pin(rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(rid.Page, false)
	h.latch.RLock()
	defer h.latch.RUnlock()
	rec, err := pg.Get(rid.Slot)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, nil
}

// GetIf copies the record at rid when the slot is still live, reporting
// ok=false (no error) when it has been deleted. MVCC index scans use it: a
// concurrent vacuum may physically reclaim a version invisible to the
// reading snapshot between the index lookup and the heap fetch.
func (h *Heap) GetIf(rid RID) ([]byte, bool, error) {
	pg, err := h.pool.Pin(rid.Page)
	if err != nil {
		return nil, false, err
	}
	defer h.pool.Unpin(rid.Page, false)
	h.latch.RLock()
	defer h.latch.RUnlock()
	if !pg.Live(rid.Slot) {
		return nil, false, nil
	}
	rec, err := pg.Get(rid.Slot)
	if err != nil {
		return nil, false, err
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, true, nil
}

// Delete tombstones the record at rid.
func (h *Heap) Delete(rid RID) error { return h.DeleteLogged(rid, nil) }

// DeleteLogged tombstones the record at rid, logging via logf first (the RID
// is known upfront, so log-before-apply closes the unlogged-dirty-page
// window; the apply itself cannot fail once the slot is verified live).
func (h *Heap) DeleteLogged(rid RID, logf LogFunc) error {
	pg, err := h.pool.Pin(rid.Page)
	if err != nil {
		return err
	}
	h.latch.Lock()
	if !pg.Live(rid.Slot) {
		h.latch.Unlock()
		h.pool.Unpin(rid.Page, false)
		return fmt.Errorf("storage: delete of dead slot %v", rid)
	}
	if logf != nil {
		lsn, err := logf(rid)
		if err != nil {
			h.latch.Unlock()
			h.pool.Unpin(rid.Page, false)
			return err
		}
		if lsn != 0 {
			pg.SetLSN(lsn)
		}
	}
	err = pg.Delete(rid.Slot)
	h.latch.Unlock()
	h.pool.Unpin(rid.Page, err == nil)
	if err == nil {
		h.live.Add(-1)
	}
	return err
}

// Update replaces the record at rid, in place when it fits, otherwise by
// delete+insert. It returns the (possibly moved) RID.
func (h *Heap) Update(rid RID, rec []byte) (RID, error) {
	pg, err := h.pool.Pin(rid.Page)
	if err != nil {
		return RID{}, err
	}
	h.latch.Lock()
	ok, err := pg.Update(rid.Slot, rec)
	if err != nil {
		h.latch.Unlock()
		h.pool.Unpin(rid.Page, false)
		return RID{}, err
	}
	if ok {
		h.latch.Unlock()
		h.pool.Unpin(rid.Page, true)
		return rid, nil
	}
	if err := pg.Delete(rid.Slot); err != nil {
		h.latch.Unlock()
		h.pool.Unpin(rid.Page, false)
		return RID{}, err
	}
	h.latch.Unlock()
	h.pool.Unpin(rid.Page, true)
	h.live.Add(-1) // the re-insert below adds it back
	return h.Insert(rec)
}

// UpdateLogged replaces the record at rid in place when the new image fits,
// logging via logf before applying. It reports ok=false (without logging)
// when the record must move, in which case the caller performs the move as a
// logged delete + logged insert so each page touched gets its own record.
func (h *Heap) UpdateLogged(rid RID, rec []byte, logf LogFunc) (bool, error) {
	pg, err := h.pool.Pin(rid.Page)
	if err != nil {
		return false, err
	}
	h.latch.Lock()
	old, err := pg.Get(rid.Slot)
	if err != nil {
		h.latch.Unlock()
		h.pool.Unpin(rid.Page, false)
		return false, err
	}
	if len(rec) > len(old) {
		h.latch.Unlock()
		h.pool.Unpin(rid.Page, false)
		return false, nil
	}
	if logf != nil {
		lsn, err := logf(rid)
		if err != nil {
			h.latch.Unlock()
			h.pool.Unpin(rid.Page, false)
			return false, err
		}
		if lsn != 0 {
			pg.SetLSN(lsn)
		}
	}
	if _, err := pg.Update(rid.Slot, rec); err != nil {
		h.latch.Unlock()
		h.pool.Unpin(rid.Page, false)
		return false, err
	}
	h.latch.Unlock()
	h.pool.Unpin(rid.Page, true)
	return true, nil
}

// Scan visits every live record in RID order. The rec slice is only valid
// for the duration of the callback. Returning false stops the scan.
func (h *Heap) Scan(visit func(rid RID, rec []byte) bool) error {
	h.mu.Lock()
	pages := make([]PageID, len(h.pages))
	copy(pages, h.pages)
	h.mu.Unlock()
	for _, id := range pages {
		pg, err := h.pool.Pin(id)
		if err != nil {
			return err
		}
		h.latch.RLock()
		n := pg.SlotCount()
		for slot := uint16(0); slot < n; slot++ {
			if !pg.Live(slot) {
				continue
			}
			rec, err := pg.Get(slot)
			if err != nil {
				h.latch.RUnlock()
				h.pool.Unpin(id, false)
				return err
			}
			if !visit(RID{Page: id, Slot: slot}, rec) {
				h.latch.RUnlock()
				h.pool.Unpin(id, false)
				return nil
			}
		}
		h.latch.RUnlock()
		h.pool.Unpin(id, false)
	}
	return nil
}

// PageIDs returns a snapshot of the heap's page list in RID order. Shared
// scans use it to drive their own (circular) page visit order.
func (h *Heap) PageIDs() []PageID {
	h.mu.Lock()
	defer h.mu.Unlock()
	pages := make([]PageID, len(h.pages))
	copy(pages, h.pages)
	return pages
}

// ScanPage pins one heap page and visits every live record on it. The rec
// slice is only valid for the duration of the callback. Returning false stops
// the visit (the page is still unpinned).
func (h *Heap) ScanPage(id PageID, visit func(rid RID, rec []byte) bool) error {
	pg, err := h.pool.Pin(id)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(id, false)
	h.latch.RLock()
	defer h.latch.RUnlock()
	n := pg.SlotCount()
	for slot := uint16(0); slot < n; slot++ {
		if !pg.Live(slot) {
			continue
		}
		rec, err := pg.Get(slot)
		if err != nil {
			return err
		}
		if !visit(RID{Page: id, Slot: slot}, rec) {
			return nil
		}
	}
	return nil
}

// Cursor is a resumable scan over the heap: records come back in RID order,
// one page pinned at a time, and iteration can pause indefinitely between
// calls — unlike Scan's callback, which drives the whole walk at once. The
// record slice returned by Next is valid until the following Next or Close
// (the cursor keeps its current page pinned between calls). Close releases
// the pin at whatever position the cursor reached, so consumers that stop
// early (LIMIT, abandoned producers) never touch the remaining pages.
//
// Cursor is NOT safe under concurrent heap mutators: the returned slice
// aliases page memory across calls, outside the heap latch. The engine's
// MVCC scans use page-at-a-time ScanPage walks instead; Cursor remains for
// single-writer tests and tools.
type Cursor struct {
	h     *Heap
	pages []PageID
	idx   int   // index into pages of the pinned page
	cur   *Page // pinned page, nil between pages
	slot  uint16
	read  int // pages pinned so far
}

// Cursor opens a streaming cursor over a snapshot of the heap's page list.
func (h *Heap) Cursor() *Cursor {
	return &Cursor{h: h, pages: h.PageIDs()}
}

// Next returns the next live record, or ok=false at the end of the heap.
func (c *Cursor) Next() (RID, []byte, bool, error) {
	for {
		if c.cur == nil {
			if c.idx >= len(c.pages) {
				return RID{}, nil, false, nil
			}
			pg, err := c.h.pool.Pin(c.pages[c.idx])
			if err != nil {
				return RID{}, nil, false, err
			}
			c.cur, c.slot = pg, 0
			c.read++
		}
		n := c.cur.SlotCount()
		for c.slot < n {
			s := c.slot
			c.slot++
			if !c.cur.Live(s) {
				continue
			}
			rec, err := c.cur.Get(s)
			if err != nil {
				c.Close()
				return RID{}, nil, false, err
			}
			return RID{Page: c.pages[c.idx], Slot: s}, rec, true, nil
		}
		c.h.pool.Unpin(c.pages[c.idx], false)
		c.cur = nil
		c.idx++
	}
}

// PagesRead reports how many heap pages the cursor has pinned so far; early
// termination tests assert LIMIT queries only read a prefix.
func (c *Cursor) PagesRead() int { return c.read }

// Close releases the cursor's pinned page, if any. It is idempotent.
func (c *Cursor) Close() {
	if c.cur != nil {
		c.h.pool.Unpin(c.pages[c.idx], false)
		c.cur = nil
	}
	c.idx = len(c.pages)
}

// Pages reports the number of pages in the heap.
func (h *Heap) Pages() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pages)
}

// LiveEstimate returns the maintained live-record count in O(1) — the
// planner's cardinality fallback for tables that were never ANALYZEd.
func (h *Heap) LiveEstimate() int64 { return h.live.Load() }

// Count counts live records by walking page slot arrays directly — no
// per-record callback, no record decode. It is the exact (page-derived)
// ground truth behind LiveEstimate; stats collection uses it.
func (h *Heap) Count() (int64, error) {
	var n int64
	for _, id := range h.PageIDs() {
		pg, err := h.pool.Pin(id)
		if err != nil {
			return 0, err
		}
		h.latch.RLock()
		n += int64(pg.LiveSlots())
		h.latch.RUnlock()
		h.pool.Unpin(id, false)
	}
	return n, nil
}

// RestorePages installs the page list recovered from a checkpoint image,
// replacing whatever the heap currently tracks.
func (h *Heap) RestorePages(pages []PageID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pages = append([]PageID(nil), pages...)
}

// AppendPage adds id to the heap's page list if absent — the redo of an
// AllocPage record during recovery.
func (h *Heap) AppendPage(id PageID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range h.pages {
		if p == id {
			return
		}
	}
	h.pages = append(h.pages, id)
}

// RecomputeLive rebuilds the O(1) live counter from the pages themselves —
// recovery calls it once redo/undo settle the final page images.
func (h *Heap) RecomputeLive() error {
	n, err := h.Count()
	if err != nil {
		return err
	}
	h.live.Store(n)
	return nil
}

// String describes the heap for diagnostics.
func (h *Heap) String() string {
	return fmt.Sprintf("heap{%d pages}", h.Pages())
}
