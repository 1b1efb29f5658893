// Package storage is a stub of stagedb/internal/storage for the analyzer
// golden files: the FS seam (OpenFile returning a File that must be closed)
// and the Sync/Flush error-return surface.
package storage

// File stands in for one open file handle.
type File interface {
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Close() error
}

// FS stands in for the filesystem seam.
type FS interface {
	OpenFile(name string, flag int, perm uint32) (File, error)
	SyncDir(name string) error
}

// OsFS is the concrete implementation.
type OsFS struct{}

// OpenFile opens name.
func (OsFS) OpenFile(name string, flag int, perm uint32) (File, error) { return nil, nil }

// SyncDir fsyncs a directory.
func (OsFS) SyncDir(name string) error { return nil }

// RID stands in for a record id.
type RID struct{ Page, Slot uint32 }

// Heap stands in for the heap file: Scan stops early, with an error, when
// pinning a page fails.
type Heap struct{}

// Scan visits every record.
func (h *Heap) Scan(visit func(rid RID, rec []byte) bool) error { return nil }

// Count returns the live record count.
func (h *Heap) Count() (int64, error) { return 0, nil }
