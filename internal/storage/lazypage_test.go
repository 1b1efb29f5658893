package storage

import (
	"bytes"
	"fmt"
	"testing"
)

// TestLazyPageAllocateAllocatesNoBytes: Allocate reserves an id and makes no
// page buffer.
func TestLazyPageAllocateAllocatesNoBytes(t *testing.T) {
	s := NewStore()
	if allocs := testing.AllocsPerRun(1000, func() { s.Allocate() }); allocs != 0 {
		t.Fatalf("Allocate made %.1f allocations per call, want 0", allocs)
	}
	if n := len(s.pages); n != 0 {
		t.Fatalf("store holds %d page buffers after Allocate alone, want 0", n)
	}
}

// TestLazyPageReservedReadsZeros: a reserved, never-written page reads as
// zeros (whatever dst held) and counts as a read; ids never reserved still
// fail.
func TestLazyPageReservedReadsZeros(t *testing.T) {
	s := NewStore()
	id := s.Allocate()
	dst := bytes.Repeat([]byte{0xAB}, PageSize)
	if err := s.ReadPage(id, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, make([]byte, PageSize)) {
		t.Fatal("reserved page did not read as zeros")
	}
	if s.Reads() != 1 || s.Writes() != 0 {
		t.Fatalf("reads=%d writes=%d, want 1 and 0", s.Reads(), s.Writes())
	}
	for _, bad := range []PageID{InvalidPage, id + 1} {
		if err := s.ReadPage(bad, dst); err == nil {
			t.Errorf("read of unallocated page %d succeeded", bad)
		}
		if err := s.WritePage(bad, dst); err == nil {
			t.Errorf("write of unallocated page %d succeeded", bad)
		}
	}
}

// TestLazyPageEvictionRoundTrip: a page written back on eviction and
// re-read returns the written bytes, over repeated evictions; the store
// holds a buffer only for pages it was written.
func TestLazyPageEvictionRoundTrip(t *testing.T) {
	s := NewStore()
	pool := NewPool(s, 1)
	pg, id, err := pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	slot, err := pg.Insert([]byte("written back"))
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id, true)
	if n := len(s.pages); n != 0 {
		t.Fatalf("store holds %d page buffers before any write-back, want 0", n)
	}
	_, other, err := pool.NewPage() // evicts id, writing it back
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(other, false)
	if n := len(s.pages); n != 1 {
		t.Fatalf("store holds %d page buffers after one write-back, want 1", n)
	}
	for round := 0; round < 3; round++ {
		pg, err := pool.Pin(id) // evicts other
		if err != nil {
			t.Fatal(err)
		}
		rec, err := pg.Get(slot)
		if err != nil || string(rec) != "written back" {
			t.Fatalf("round %d: re-read %q, %v", round, rec, err)
		}
		pool.Unpin(id, false)
		if _, err := pool.Pin(other); err != nil { // evicts id, clean
			t.Fatal(err)
		}
		pool.Unpin(other, false)
	}
	if n := len(s.pages); n != 2 {
		t.Fatalf("store holds %d page buffers for 2 written pages", n)
	}
}

// TestLazyPageResidentTableNoStoreBuffers: a table that fits in the buffer
// pool lives in its frames only — the store holds no copy of its pages.
func TestLazyPageResidentTableNoStoreBuffers(t *testing.T) {
	s := NewStore()
	h := NewHeap(NewPool(s, 64))
	for i := 0; i < 2000; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("row-%06d-%s", i, bytes.Repeat([]byte{'x'}, 64)))); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.pages) < 2 {
		t.Fatalf("table spans %d pages; the test needs several", len(h.pages))
	}
	if n := len(s.pages); n != 0 {
		t.Fatalf("store holds %d page buffers for a pool-resident table, want 0", n)
	}
	n := 0
	if err := h.Scan(func(RID, []byte) bool { n++; return true }); err != nil || n != 2000 {
		t.Fatalf("scan: %d rows, %v", n, err)
	}
}
