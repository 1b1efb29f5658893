package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Store is the page persistence layer: an in-memory "disk" of fixed-size
// pages. Reads and writes are counted so experiments can charge simulated
// I/O time per access. Reads take only the shared lock, so concurrent scans
// do not serialize on the simulated disk; writes and allocation exclude all
// readers.
type Store struct {
	mu     sync.RWMutex
	pages  map[PageID][]byte
	nextID PageID
	reads  atomic.Uint64
	writes atomic.Uint64
}

// NewStore returns an empty store. Page ids start at 1; 0 is invalid.
func NewStore() *Store {
	return &Store{pages: make(map[PageID][]byte), nextID: 1}
}

// Allocate reserves a new page id with zeroed content.
func (s *Store) Allocate() PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	s.pages[id] = make([]byte, PageSize)
	return id
}

// ReadPage copies the page contents into dst. Concurrent reads proceed in
// parallel (shared lock).
func (s *Store) ReadPage(id PageID, dst []byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, ok := s.pages[id]
	if !ok {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	copy(dst, src)
	s.reads.Add(1)
	return nil
}

// WritePage persists the page contents.
func (s *Store) WritePage(id PageID, src []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	dst, ok := s.pages[id]
	if !ok {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	copy(dst, src)
	s.writes.Add(1)
	return nil
}

// Reads reports the number of page reads since construction.
func (s *Store) Reads() uint64 { return s.reads.Load() }

// Writes reports the number of page writes.
func (s *Store) Writes() uint64 { return s.writes.Load() }

// PageStore is what the buffer pool runs over: the in-memory Store (the
// seed's simulated disk) or the durable FileStore. Allocate is infallible by
// contract — implementations defer I/O to the first write-back.
type PageStore interface {
	Allocate() PageID
	ReadPage(id PageID, dst []byte) error
	WritePage(id PageID, src []byte) error
	Reads() uint64
	Writes() uint64
}

type frame struct {
	id    PageID
	page  Page
	pins  int
	dirty bool
	// prev and next link the frame into the pool's LRU list while it is
	// unpinned (evictable). The list is intrusive so Unpin allocates nothing.
	prev, next *frame
}

// Pool is a pinning LRU buffer pool over a PageStore. Pin returns the
// in-memory page, reading it from the store on a miss and evicting an
// unpinned page (flushing it if dirty) when the pool is full. Unpin releases
// the page and records whether it was modified.
//
// A miss on a full pool takes over the frame it evicts — the 8 KB page image
// is overwritten in place rather than a new frame allocated — so a scan over
// a table larger than the pool costs no allocation per page read. That is
// safe because of the pin protocol: a *Page is only touched between its Pin
// and the matching Unpin, and a pinned frame is never evicted.
type Pool struct {
	mu       sync.Mutex
	store    PageStore
	capacity int
	frames   map[PageID]*frame
	mru, lru *frame // ends of the list of unpinned frames; nil when empty
	hits     uint64
	misses   uint64

	// barrier, when set, runs before any dirty page image is written back to
	// the store, receiving the page's LSN. The durable engine installs the
	// WAL rule here: the log must be flushed through the page's LSN before
	// the page itself may hit disk.
	barrier func(pageLSN uint64) error
}

// NewPool returns a pool of the given frame capacity over store.
func NewPool(store PageStore, capacity int) *Pool {
	if capacity <= 0 {
		capacity = 64
	}
	return &Pool{
		store:    store,
		capacity: capacity,
		frames:   make(map[PageID]*frame),
	}
}

// Pin fetches the page and increments its pin count. Pinned pages are never
// evicted; every Pin must be paired with Unpin.
func (p *Pool) Pin(id PageID) (*Page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok {
		p.hits++
		if f.pins == 0 {
			p.unlinkLocked(f)
		}
		f.pins++
		return &f.page, nil
	}
	p.misses++
	f, err := p.frameLocked()
	if err != nil {
		return nil, err
	}
	if err := p.store.ReadPage(id, f.page.Bytes()); err != nil {
		return nil, err
	}
	f.id, f.pins, f.dirty = id, 1, false
	p.frames[id] = f
	return &f.page, nil
}

// NewPage allocates a fresh page in the store, formats it, and pins it.
func (p *Pool) NewPage() (*Page, PageID, error) {
	id := p.store.Allocate()
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := p.frameLocked()
	if err != nil {
		return nil, InvalidPage, err
	}
	f.id, f.pins, f.dirty = id, 1, true
	f.page.InitPage(id)
	p.frames[id] = f
	return &f.page, id, nil
}

// Unpin releases one pin; dirty marks the page modified.
func (p *Pool) Unpin(id PageID, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok || f.pins == 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned page %d", id))
	}
	f.dirty = f.dirty || dirty
	f.pins--
	if f.pins == 0 {
		f.prev, f.next = nil, p.mru
		if p.mru != nil {
			p.mru.prev = f
		} else {
			p.lru = f
		}
		p.mru = f
	}
}

// unlinkLocked takes an unpinned frame out of the LRU list.
func (p *Pool) unlinkLocked(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		p.mru = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		p.lru = f.prev
	}
	f.prev, f.next = nil, nil
}

// SetWriteBarrier installs fn, called with the page's LSN before any dirty
// page is written back (eviction or FlushAll). A non-nil error aborts the
// write-back, keeping an insufficiently-logged page out of the store.
func (p *Pool) SetWriteBarrier(fn func(pageLSN uint64) error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.barrier = fn
}

// writeBackLocked flushes one dirty frame through the write barrier.
func (p *Pool) writeBackLocked(f *frame) error {
	if p.barrier != nil {
		if err := p.barrier(f.page.LSN()); err != nil {
			return err
		}
	}
	return p.store.WritePage(f.id, f.page.Bytes())
}

// frameLocked returns a frame for a page about to be brought in: a new one
// while the pool has room, otherwise the least-recently-used unpinned frame,
// written back first if dirty and then unmapped. The caller fills it.
func (p *Pool) frameLocked() (*frame, error) {
	if len(p.frames) < p.capacity {
		return &frame{}, nil
	}
	f := p.lru
	if f == nil {
		return nil, fmt.Errorf("storage: buffer pool full of pinned pages")
	}
	if f.dirty {
		if err := p.writeBackLocked(f); err != nil {
			return nil, err
		}
	}
	p.unlinkLocked(f)
	delete(p.frames, f.id)
	return f, nil
}

// FlushAll writes every dirty frame back to the store (checkpoint).
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.frames {
		if f.dirty {
			if err := p.writeBackLocked(f); err != nil {
				return err
			}
			f.dirty = false
		}
	}
	return nil
}

// Misses reports pool misses (store reads caused by Pin).
func (p *Pool) Misses() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.misses
}
