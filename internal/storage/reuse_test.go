package storage

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"stagedb/internal/value"
)

// TestDecodeRowIntoOverwritesRecycled: decoding into storage that still holds
// another row's non-NULL values yields NULL in every NULL and unselected slot
// and exactly DecodeRow's value everywhere else — the scans decode straight
// into recycled exchange-page storage, so a slot the decoder skipped would
// leak the previous row's value into this one.
func TestDecodeRowIntoOverwritesRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	junk := []value.Value{value.NewInt(-77), value.NewText("stale"), value.NewFloat(2.5), value.NewBool(true)}
	for iter := 0; iter < 500; iter++ {
		schema, row := randSchemaRow(rng)
		cols := randCols(rng, len(row))
		rec, err := EncodeRow(schema, row)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeRow(schema, rec, cols)
		if err != nil {
			t.Fatal(err)
		}
		dst := make(value.Row, len(row))
		for i := range dst {
			dst[i] = junk[rng.Intn(len(junk))]
		}
		if err := DecodeRowInto(schema, rec, cols, dst); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for i := range dst {
			if row[i].IsNull() || (cols != nil && !cols[i]) {
				if !dst[i].IsNull() {
					t.Fatalf("iter %d col %d (null=%v selected=%v): recycled slot kept %v", iter, i, row[i].IsNull(), cols == nil || cols[i], dst[i])
				}
				continue
			}
			if !sameValue(dst[i], want[i]) {
				t.Fatalf("iter %d col %d: DecodeRowInto %v, DecodeRow %v", iter, i, dst[i], want[i])
			}
		}
	}
}

// TestDecodeRowIntoWidth: a target of the wrong width is an error, not a
// short or out-of-range write.
func TestDecodeRowIntoWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	schema, row := randSchemaRow(rng)
	rec, err := EncodeRow(schema, row)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, len(row) - 1, len(row) + 1} {
		if err := DecodeRowInto(schema, rec, nil, make(value.Row, w)); err == nil {
			t.Fatalf("width %d for a %d-column schema decoded without error", w, len(row))
		}
	}
}

// TestPoolPinMissAllocatesNothing: once the pool is full, a miss takes over
// the frame it evicts and Unpin links it into the LRU list in place, so a
// scan over a table larger than the pool allocates nothing per page read.
func TestPoolPinMissAllocatesNothing(t *testing.T) {
	store := NewStore()
	const frames, pages = 4, 64
	pool := NewPool(store, frames)
	ids := make([]PageID, pages)
	for i := range ids {
		_, id, err := pool.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, true)
		ids[i] = id
	}
	next := 0
	pin := func() {
		id := ids[next%pages]
		next++
		if _, err := pool.Pin(id); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(id, false)
	}
	for i := 0; i < 2*pages; i++ {
		pin() // every page written back once; the pool is full of clean frames
	}
	misses := pool.Misses()
	if allocs := testing.AllocsPerRun(1000, pin); allocs != 0 {
		t.Fatalf("Pin on a miss with a full pool allocates %.1f objects, want 0", allocs)
	}
	if got := pool.Misses() - misses; got < 1000 {
		t.Fatalf("only %d of the measured pins missed: the test no longer measures the miss path", got)
	}
}

// TestPoolReusedFrameWritesBackFirst: in durable mode an evicted dirty frame
// is written back — through the write barrier, with its own LSN — before the
// frame is reused for the incoming page, and the incoming page's image never
// reaches the evicted page's slot on disk.
func TestPoolReusedFrameWritesBackFirst(t *testing.T) {
	store, err := OpenFileStore(OsFS{}, filepath.Join(t.TempDir(), "data.stagedb"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pool := NewPool(store, 1)
	var barrier []uint64
	pool.SetWriteBarrier(func(lsn uint64) error {
		barrier = append(barrier, lsn)
		return nil
	})

	a, idA, err := pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	slotA, err := a.Insert([]byte("page a record"))
	if err != nil {
		t.Fatal(err)
	}
	a.SetLSN(7)
	pool.Unpin(idA, true)

	b, idB, err := pool.NewPage() // evicts and reuses A's frame
	if err != nil {
		t.Fatal(err)
	}
	if len(barrier) != 1 || barrier[0] != 7 {
		t.Fatalf("write barrier saw LSNs %v before the frame was reused, want [7]", barrier)
	}
	if b.ID() != idB || b.SlotCount() != 0 {
		t.Fatalf("reused frame not reformatted: id %d (want %d), %d slots", b.ID(), idB, b.SlotCount())
	}
	if _, err := b.Insert([]byte("page b record")); err != nil {
		t.Fatal(err)
	}
	b.SetLSN(9)
	pool.Unpin(idB, true)

	var onDisk Page
	if err := store.ReadPage(idA, onDisk.Bytes()); err != nil {
		t.Fatal(err)
	}
	if rec, err := onDisk.Get(slotA); err != nil || string(rec) != "page a record" || onDisk.LSN() != 7 {
		t.Fatalf("page A on disk: %q lsn %d err %v", rec, onDisk.LSN(), err)
	}

	again, err := pool.Pin(idA) // evicts B (written back, LSN 9) into the same frame
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Unpin(idA, false)
	if len(barrier) != 2 || barrier[1] != 9 {
		t.Fatalf("write barrier saw LSNs %v, want [7 9]", barrier)
	}
	if rec, err := again.Get(slotA); err != nil || string(rec) != "page a record" || again.ID() != idA {
		t.Fatalf("page A re-read into a reused frame: %q id %d err %v", rec, again.ID(), err)
	}
}

// TestFileStorePageIOAllocatesNothing: ReadPage and WritePage stage the
// frame (checksum + image) in a recycled buffer, so moving a heap's pages
// through the data file — a checkpoint, a reopen — makes no garbage per
// page. The checksum is still verified: a flipped byte on disk fails the
// read.
func TestFileStorePageIOAllocatesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.stagedb")
	store, err := OpenFileStore(OsFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var pg, back Page
	id := store.Allocate()
	pg.InitPage(id)
	if _, err := pg.Insert([]byte("framed record")); err != nil {
		t.Fatal(err)
	}
	write := func() {
		if err := store.WritePage(id, pg.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		if err := store.ReadPage(id, back.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	write()
	read()
	if back != pg {
		t.Fatal("page read back differs from the page written")
	}
	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Fatalf("WritePage allocates %.1f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Fatalf("ReadPage allocates %.1f objects per call, want 0", allocs)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[frameOffset(id)+100] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := store.ReadPage(id, back.Bytes()); err == nil {
		t.Fatal("a corrupted frame read back without a checksum error")
	}
}
