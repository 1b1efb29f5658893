// Package storage implements the storage engine: slotted pages, a record
// codec, a page store with a pinning buffer pool, heap files, and a B+tree
// secondary index. It is the SHORE-equivalent substrate of the paper's
// prototype, operating on an in-memory page store whose I/O
// timing, when needed, is charged by the simulators.
package storage

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the fixed page size in bytes.
const PageSize = 8192

// PageID identifies a page in the store.
type PageID uint32

// InvalidPage is the zero, never-allocated page id.
const InvalidPage PageID = 0

// RID locates a record: page plus slot.
type RID struct {
	Page PageID
	Slot uint16
}

func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// Page header layout:
//
//	0..3   page id
//	4..5   slot count
//	6..7   free-space low water mark (end of slot array)
//	8..9   free-space high water mark (start of record data)
//	10..17 page LSN (for WAL)
//
// The slot array grows upward from the header; record data grows downward
// from the end of the page. Each slot is offset(2) + length(2). A deleted
// slot keeps its offset and capacity but sets the deadFlag bit in the length
// word, so recovery's PutAt can restore a record in place at the same slot —
// the idempotent un-delete physiological undo depends on. A slot with offset
// 0 was materialized by PutAt extending the slot array and never held data.
const (
	headerSize   = 18
	slotSize     = 4
	offPageID    = 0
	offSlotCount = 4
	offFreeLow   = 6
	offFreeHigh  = 8
	offLSN       = 10
	deadFlag     = 0x8000 // high bit of the slot length word
	lenMask      = 0x7fff
)

// Page is one slotted page. Methods do not lock; callers synchronize via the
// buffer pool pin protocol.
type Page struct {
	buf [PageSize]byte
}

// InitPage formats p as an empty page with the given id.
func (p *Page) InitPage(id PageID) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	binary.LittleEndian.PutUint32(p.buf[offPageID:], uint32(id))
	binary.LittleEndian.PutUint16(p.buf[offSlotCount:], 0)
	binary.LittleEndian.PutUint16(p.buf[offFreeLow:], headerSize)
	binary.LittleEndian.PutUint16(p.buf[offFreeHigh:], PageSize)
}

// ID returns the page id stored in the header.
func (p *Page) ID() PageID {
	return PageID(binary.LittleEndian.Uint32(p.buf[offPageID:]))
}

// LSN returns the page's log sequence number.
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.buf[offLSN:]) }

// SetLSN stamps the page's log sequence number.
func (p *Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.buf[offLSN:], lsn) }

// SlotCount returns the number of slots, including tombstones.
func (p *Page) SlotCount() uint16 {
	return binary.LittleEndian.Uint16(p.buf[offSlotCount:])
}

func (p *Page) freeLow() uint16  { return binary.LittleEndian.Uint16(p.buf[offFreeLow:]) }
func (p *Page) freeHigh() uint16 { return binary.LittleEndian.Uint16(p.buf[offFreeHigh:]) }

// FreeSpace reports the bytes available for one new record (including its
// slot entry).
func (p *Page) FreeSpace() int {
	free := int(p.freeHigh()) - int(p.freeLow())
	free -= slotSize
	if free < 0 {
		return 0
	}
	return free
}

func (p *Page) slotAt(i uint16) (off, length uint16) {
	entry := binary.LittleEndian.Uint32(p.buf[headerSize+int(i)*slotSize:])
	return uint16(entry), uint16(entry >> 16)
}

func (p *Page) setSlot(i uint16, off, length uint16) {
	base := headerSize + int(i)*slotSize
	binary.LittleEndian.PutUint16(p.buf[base:], off)
	binary.LittleEndian.PutUint16(p.buf[base+2:], length)
}

// Insert stores rec and returns its slot. It fails when the page lacks room.
func (p *Page) Insert(rec []byte) (uint16, error) {
	if len(rec) == 0 || len(rec) > PageSize-headerSize-slotSize {
		return 0, fmt.Errorf("storage: record size %d out of range", len(rec))
	}
	if p.FreeSpace() < len(rec) {
		return 0, fmt.Errorf("storage: page %d full", p.ID())
	}
	n := p.SlotCount()
	newHigh := p.freeHigh() - uint16(len(rec))
	copy(p.buf[newHigh:], rec)
	p.setSlot(n, newHigh, uint16(len(rec)))
	binary.LittleEndian.PutUint16(p.buf[offSlotCount:], n+1)
	binary.LittleEndian.PutUint16(p.buf[offFreeLow:], headerSize+uint16(int(n+1)*slotSize))
	binary.LittleEndian.PutUint16(p.buf[offFreeHigh:], newHigh)
	return n, nil
}

// liveAt reports whether the slot (assumed in range) holds a record.
func (p *Page) liveAt(slot uint16) bool {
	_, ok := p.record(slot)
	return ok
}

// record returns the bytes of the slot (assumed in range) and whether it
// holds a live record, from one read of its slot entry.
func (p *Page) record(slot uint16) ([]byte, bool) {
	off, length := p.slotAt(slot)
	if off == 0 || length&deadFlag != 0 {
		return nil, false
	}
	return p.buf[off : off+length], true
}

// lookup is record for any slot number: an out-of-range slot is not live.
func (p *Page) lookup(slot uint16) ([]byte, bool) {
	if slot >= p.SlotCount() {
		return nil, false
	}
	return p.record(slot)
}

// Get returns the record bytes at slot (a view into the page; callers must
// copy before unpinning). Tombstoned and out-of-range slots return an error.
func (p *Page) Get(slot uint16) ([]byte, error) {
	if slot >= p.SlotCount() {
		return nil, fmt.Errorf("storage: slot %d out of range on page %d", slot, p.ID())
	}
	rec, ok := p.record(slot)
	if !ok {
		return nil, fmt.Errorf("storage: slot %d on page %d is deleted", slot, p.ID())
	}
	return rec, nil
}

// Delete tombstones the slot. The record bytes and the slot's offset are
// kept (only the dead flag is set), so an undo can restore the record in
// place; space is reclaimed only by page rebuilds (compaction), as in most
// slotted-page implementations.
func (p *Page) Delete(slot uint16) error {
	if slot >= p.SlotCount() {
		return fmt.Errorf("storage: slot %d out of range on page %d", slot, p.ID())
	}
	if !p.liveAt(slot) {
		return fmt.Errorf("storage: slot %d on page %d already deleted", slot, p.ID())
	}
	off, length := p.slotAt(slot)
	p.setSlot(slot, off, length|deadFlag)
	return nil
}

// Update replaces the record at slot when the new record fits in place (same
// or smaller size); it reports whether it did. Larger records must be moved
// by the heap layer (delete + insert).
func (p *Page) Update(slot uint16, rec []byte) (bool, error) {
	if slot >= p.SlotCount() {
		return false, fmt.Errorf("storage: slot %d out of range on page %d", slot, p.ID())
	}
	if !p.liveAt(slot) {
		return false, fmt.Errorf("storage: slot %d on page %d is deleted", slot, p.ID())
	}
	off, length := p.slotAt(slot)
	if len(rec) > int(length) {
		return false, nil
	}
	copy(p.buf[off:], rec)
	p.setSlot(slot, off, uint16(len(rec)))
	return true, nil
}

// PutAt places rec at the given slot regardless of the slot's current state:
// a live slot is overwritten, a dead slot is revived (in place when the old
// capacity fits, otherwise from fresh free space), and a slot beyond the
// current count materializes the slot array up to it. This is the
// physiological redo/undo primitive — replaying an insert or un-deleting a
// record lands at the exact RID the log names, and replaying it twice is a
// no-op-shaped overwrite.
func (p *Page) PutAt(slot uint16, rec []byte) error {
	if len(rec) == 0 || len(rec) > PageSize-headerSize-slotSize {
		return fmt.Errorf("storage: record size %d out of range", len(rec))
	}
	if n := p.SlotCount(); slot >= n {
		newLow := headerSize + uint16(int(slot+1)*slotSize)
		if int(newLow) > int(p.freeHigh()) {
			return fmt.Errorf("storage: page %d has no room for slot %d", p.ID(), slot)
		}
		for i := n; i <= slot; i++ {
			p.setSlot(i, 0, 0) // never-used: off 0, dead until filled
		}
		binary.LittleEndian.PutUint16(p.buf[offSlotCount:], slot+1)
		binary.LittleEndian.PutUint16(p.buf[offFreeLow:], newLow)
	}
	off, length := p.slotAt(slot)
	if capHere := int(length & lenMask); off != 0 && capHere >= len(rec) {
		copy(p.buf[off:], rec)
		p.setSlot(slot, off, uint16(len(rec)))
		return nil
	}
	if int(p.freeHigh())-len(rec) < int(p.freeLow()) {
		return fmt.Errorf("storage: page %d full restoring slot %d", p.ID(), slot)
	}
	newHigh := p.freeHigh() - uint16(len(rec))
	copy(p.buf[newHigh:], rec)
	p.setSlot(slot, newHigh, uint16(len(rec)))
	binary.LittleEndian.PutUint16(p.buf[offFreeHigh:], newHigh)
	return nil
}

// ClearAt tombstones the slot if it is live and is a no-op when it is
// already dead — the idempotent delete behind physiological redo/undo.
func (p *Page) ClearAt(slot uint16) error {
	if slot >= p.SlotCount() {
		return fmt.Errorf("storage: slot %d out of range on page %d", slot, p.ID())
	}
	if p.liveAt(slot) {
		off, length := p.slotAt(slot)
		p.setSlot(slot, off, length|deadFlag)
	}
	return nil
}

// revertInsert undoes an Insert that was just made into slot (which must be
// the newest slot, with its record at the free-space high mark). The heap
// uses it when WAL logging of an applied insert fails: the page change is
// backed out so storage never holds an unlogged row.
func (p *Page) revertInsert(slot uint16) {
	off, length := p.slotAt(slot)
	binary.LittleEndian.PutUint16(p.buf[offSlotCount:], slot)
	binary.LittleEndian.PutUint16(p.buf[offFreeLow:], headerSize+uint16(int(slot)*slotSize))
	binary.LittleEndian.PutUint16(p.buf[offFreeHigh:], off+length)
}

// LiveSlots counts the slots holding records (excluding tombstones) by
// walking the slot array only — no record payloads are touched. Heap.Count
// uses it as the stats fast path.
func (p *Page) LiveSlots() int {
	n := int(p.SlotCount())
	live := 0
	for i := 0; i < n; i++ {
		if p.liveAt(uint16(i)) {
			live++
		}
	}
	return live
}

// Live reports whether the slot holds a record.
func (p *Page) Live(slot uint16) bool {
	_, ok := p.lookup(slot)
	return ok
}

// Bytes exposes the raw page for the store and WAL.
func (p *Page) Bytes() []byte { return p.buf[:] }
