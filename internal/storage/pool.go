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
// readers. The pool calls ReadPage with no lock of its own held, so misses
// on different pages copy their images concurrently.
//
// A page's bytes exist in the store only from its first write-back, as the
// PageStore contract allows: Allocate reserves an id and nothing more. A
// table that never leaves the buffer pool therefore lives in memory once,
// in its frames, not also here.
type Store struct {
	mu     sync.RWMutex
	pages  map[PageID][]byte // written pages; reserved ids absent until then
	nextID PageID
	reads  atomic.Uint64
	writes atomic.Uint64
}

// NewStore returns an empty store. Page ids start at 1; 0 is invalid.
func NewStore() *Store {
	return &Store{pages: make(map[PageID][]byte), nextID: 1}
}

// Allocate reserves a new page id; its content reads as zeros until the
// first WritePage.
func (s *Store) Allocate() PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	return id
}

// ReadPage copies the page contents into dst; a page reserved but never
// written reads as zeros. Concurrent reads proceed in parallel (shared
// lock): the pool's misses call it outside the pool's mutex.
func (s *Store) ReadPage(id PageID, dst []byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id == InvalidPage || id >= s.nextID {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	if src, ok := s.pages[id]; ok {
		copy(dst, src)
	} else {
		clear(dst)
	}
	s.reads.Add(1)
	return nil
}

// WritePage persists the page contents, making the page's buffer on its
// first write.
func (s *Store) WritePage(id PageID, src []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == InvalidPage || id >= s.nextID {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	dst, ok := s.pages[id]
	if !ok {
		dst = make([]byte, PageSize)
		s.pages[id] = dst
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

// frame is one page slot of the pool. id, pins, dirty and the LRU links are
// guarded by Pool.mu. The page image is written without Pool.mu only by the
// miss that loads it, while the frame is in flight; every other Pin of that
// page waits on loaded before touching the image.
type frame struct {
	id    PageID
	page  Page
	pins  int
	dirty bool
	// prev and next link the frame into the pool's LRU list while it is
	// unpinned (evictable). The list is intrusive so Unpin allocates nothing.
	prev, next *frame

	// loaded is the frame's load latch and its in-flight mark: the miss
	// that maps the frame adds one under Pool.mu and releases it, without
	// Pool.mu, once the page image is in. Every hit waits on it after
	// dropping Pool.mu, which costs one atomic load once the load is done.
	// It is reused only after every pin is gone, so no Wait is pending
	// when the next load adds. err is the failed read's error, written
	// before loaded is released; a frame whose read failed is unmapped
	// and never reused.
	loaded sync.WaitGroup
	err    error
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
//
// A miss reads the page with no pool lock held. Under mu it takes a victim
// frame, maps the page to it pinned and in flight, and releases mu; it then
// copies the image in from the store and releases the frame's load latch.
// Another Pin of that page pins the frame under mu as a hit and waits on
// the latch outside it, so a miss blocks only its own reader and the Pins of
// that one page: every other hit, Unpin and miss proceeds meanwhile, and the
// store sees one read however many Pins wait on it. A failed read unmaps
// the page (the next Pin reads again) and fails the loader and every
// waiter. The latch is a WaitGroup, not a lock: nothing is ever acquired
// while it is held, so it forms no lock order with mu.
//
// A dirty victim's write-back and FlushAll still run under mu, the write
// barrier (the WAL flush through the page's LSN) included. No workload
// evicts dirty pages in volume, and moving that write out of mu would need
// the victim to stay mapped while it is written.
type Pool struct {
	mu       sync.Mutex
	store    PageStore
	capacity int
	frames   map[PageID]*frame
	mru, lru *frame // ends of the list of unpinned frames; nil when empty
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
// evicted; every Pin must be paired with Unpin. A Pin that fails holds no
// pin.
func (p *Pool) Pin(id PageID) (*Page, error) {
	p.mu.Lock()
	if f, ok := p.frames[id]; ok {
		if f.pins == 0 {
			p.unlinkLocked(f)
		}
		f.pins++
		p.mu.Unlock()
		f.loaded.Wait()
		if f.err != nil {
			return nil, f.err
		}
		return &f.page, nil
	}
	p.misses++
	f, err := p.frameLocked()
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	f.id, f.pins, f.dirty = id, 1, false
	f.loaded.Add(1)
	p.frames[id] = f
	p.mu.Unlock()

	if err := p.store.ReadPage(id, f.page.Bytes()); err != nil {
		f.err = err
		p.mu.Lock()
		delete(p.frames, id)
		p.mu.Unlock()
		f.loaded.Done()
		return nil, err
	}
	f.loaded.Done()
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

// FlushAll writes every dirty frame back to the store (checkpoint). A frame
// in flight is clean — nobody can have modified a page still being read —
// so the loop never touches an image a miss is writing.
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
