package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// FileStore is the durable PageStore: page images live in a single data
// file, each framed with a CRC32 of its contents so a damaged page is
// detected at read time instead of silently decoded. Page id n occupies the
// fixed frame at header + (n-1)*frameSize, so RIDs are stable across
// restarts — the property the WAL's physiological redo/undo depends on.
//
// Allocation state (the next id and the free list left by dropped tables) is
// kept in memory and made recoverable by the engine: a checkpoint snapshots
// it and AllocPage/FreePage log records replay it forward. The store itself
// never writes allocation metadata — Allocate stays infallible and the file
// simply extends when a new page is first written back.
type FileStore struct {
	mu     sync.Mutex
	f      File
	path   string
	nextID PageID
	free   []PageID
	reads  atomic.Uint64
	writes atomic.Uint64
}

const (
	// fileMagic identifies a stagedb data file (8 bytes).
	fileMagic = "SDBPAGE1"
	// fileHeaderSize reserves the first bytes for the magic.
	fileHeaderSize = 16
	// frameSize is one on-disk page frame: CRC32 + page image.
	frameSize = 4 + PageSize
)

// OpenFileStore opens (or creates) the data file at path on fsys.
func OpenFileStore(fsys FS, path string) (*FileStore, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open data file: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat data file: %w", err)
	}
	s := &FileStore{f: f, path: path, nextID: 1}
	if size == 0 {
		var hdr [fileHeaderSize]byte
		copy(hdr[:], fileMagic)
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: init data file: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: init data file: %w", err)
		}
		return s, nil
	}
	var hdr [fileHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: read data file header: %w", err)
	}
	if string(hdr[:len(fileMagic)]) != fileMagic {
		f.Close()
		return nil, fmt.Errorf("storage: %s is not a stagedb data file", path)
	}
	// Provisional next id from the file length; recovery overwrites it with
	// the checkpointed allocation state plus replayed AllocPage records.
	frames := (size - fileHeaderSize + frameSize - 1) / frameSize
	s.nextID = PageID(frames) + 1
	return s, nil
}

// frames recycles the frame buffers ReadPage and WritePage stage a page
// image and its checksum in: a checkpoint or a reopen moves every page of
// the heap through them, and a fresh 8 KB buffer per call would make that
// burst of garbage, not the live data, the process's memory peak.
var frames = sync.Pool{New: func() any { return new([frameSize]byte) }}

func frameOffset(id PageID) int64 {
	return fileHeaderSize + int64(id-1)*frameSize
}

// Allocate reserves a page id: a freed one when available, else the next
// fresh id. No I/O happens here — the file extends when the page is first
// written back.
func (s *FileStore) Allocate() PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return id
	}
	id := s.nextID
	s.nextID++
	return id
}

// ReadPage reads the page image into dst, verifying its checksum. A frame
// that was never written (beyond EOF, or a zero hole left by a later page's
// write) comes back as a freshly formatted empty page: recovery redo
// reconstructs allocated-but-never-flushed pages from the log.
//
// The pool's misses call ReadPage concurrently, outside the pool's mutex.
// That is safe without s.mu: each call preads into its own pooled frame
// buffer and writes only its caller's dst.
func (s *FileStore) ReadPage(id PageID, dst []byte) error {
	if id == InvalidPage {
		return fmt.Errorf("storage: read of invalid page 0")
	}
	frame := frames.Get().(*[frameSize]byte)
	defer frames.Put(frame)
	buf := frame[:]
	n, err := s.f.ReadAt(buf, frameOffset(id))
	if err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	s.reads.Add(1)
	if n < frameSize {
		// Never fully written: a fresh page.
		var pg Page
		pg.InitPage(id)
		copy(dst, pg.Bytes())
		return nil
	}
	sum := binary.LittleEndian.Uint32(buf[:4])
	img := buf[4:]
	if sum != crc32.ChecksumIEEE(img) {
		if sum == 0 && allZero(img) {
			// A hole: the file was extended past this frame before the frame
			// itself was written. The page exists only in the log.
			var pg Page
			pg.InitPage(id)
			copy(dst, pg.Bytes())
			return nil
		}
		return fmt.Errorf("storage: page %d checksum mismatch (stored %08x)", id, sum)
	}
	copy(dst, img)
	return nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// WritePage writes the page image and its checksum as one positioned write.
func (s *FileStore) WritePage(id PageID, src []byte) error {
	if id == InvalidPage {
		return fmt.Errorf("storage: write of invalid page 0")
	}
	frame := frames.Get().(*[frameSize]byte)
	defer frames.Put(frame)
	buf := frame[:]
	binary.LittleEndian.PutUint32(buf[:4], crc32.ChecksumIEEE(src[:PageSize]))
	copy(buf[4:], src)
	if _, err := s.f.WriteAt(buf, frameOffset(id)); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	s.writes.Add(1)
	return nil
}

// Sync forces written pages to stable storage (checkpoint).
func (s *FileStore) Sync() error { return s.f.Sync() }

// Close releases the data file descriptor.
func (s *FileStore) Close() error { return s.f.Close() }

// Reads reports page reads since open.
func (s *FileStore) Reads() uint64 { return s.reads.Load() }

// Writes reports page writes since open.
func (s *FileStore) Writes() uint64 { return s.writes.Load() }

// AllocState snapshots the free map for a checkpoint.
func (s *FileStore) AllocState() (next PageID, free []PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	free = make([]PageID, len(s.free))
	copy(free, s.free)
	return s.nextID, free
}

// SetAllocState installs the free map recovered from a checkpoint.
func (s *FileStore) SetAllocState(next PageID, free []PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if next > s.nextID {
		s.nextID = next
	}
	s.free = append([]PageID(nil), free...)
}

// MarkAllocated replays one AllocPage record: id is in use, whether it came
// from the free list or extended the file.
func (s *FileStore) MarkAllocated(id PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id >= s.nextID {
		s.nextID = id + 1
	}
	for i, f := range s.free {
		if f == id {
			s.free = append(s.free[:i], s.free[i+1:]...)
			break
		}
	}
}

// FreePage returns id to the free list (DROP TABLE).
func (s *FileStore) FreePage(id PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.free {
		if f == id {
			return
		}
	}
	s.free = append(s.free, id)
	sort.Slice(s.free, func(i, j int) bool { return s.free[i] < s.free[j] })
}
