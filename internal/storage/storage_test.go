package storage

import (
	"fmt"
	"testing"
	"testing/quick"

	"stagedb/internal/catalog"
	"stagedb/internal/value"
)

func TestPageInsertGetDelete(t *testing.T) {
	var p Page
	p.InitPage(7)
	if p.ID() != 7 {
		t.Fatalf("id=%d", p.ID())
	}
	s1, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Insert([]byte("world!"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Get(s1); string(got) != "hello" {
		t.Fatalf("get s1=%q", got)
	}
	if got, _ := p.Get(s2); string(got) != "world!" {
		t.Fatalf("get s2=%q", got)
	}
	if err := p.Delete(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(s1); err == nil {
		t.Fatal("get of deleted slot should fail")
	}
	if err := p.Delete(s1); err == nil {
		t.Fatal("double delete should fail")
	}
	if p.Live(s1) || !p.Live(s2) {
		t.Fatal("liveness wrong")
	}
}

func TestPageFillsUp(t *testing.T) {
	var p Page
	p.InitPage(1)
	rec := make([]byte, 100)
	n := 0
	for {
		if _, err := p.Insert(rec); err != nil {
			break
		}
		n++
	}
	// 8192 - 18 header; each record costs 100 + 4 slot = 104.
	want := (PageSize - headerSize) / 104
	if n != want {
		t.Fatalf("inserted %d records, want %d", n, want)
	}
	if p.FreeSpace() >= 100 {
		t.Fatal("page should be full")
	}
}

func TestPageUpdateInPlaceAndTooBig(t *testing.T) {
	var p Page
	p.InitPage(1)
	s, _ := p.Insert([]byte("abcdef"))
	ok, err := p.Update(s, []byte("xyz"))
	if err != nil || !ok {
		t.Fatalf("in-place update: %v %v", ok, err)
	}
	if got, _ := p.Get(s); string(got) != "xyz" {
		t.Fatalf("after update: %q", got)
	}
	ok, err = p.Update(s, make([]byte, 500))
	if err != nil || ok {
		t.Fatal("larger update should report false, not error")
	}
}

func TestPageLSN(t *testing.T) {
	var p Page
	p.InitPage(3)
	p.SetLSN(123456789)
	if p.LSN() != 123456789 {
		t.Fatal("LSN round trip")
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	schema := catalog.Schema{Columns: []catalog.Column{
		{Name: "a", Type: value.Int},
		{Name: "b", Type: value.Text},
		{Name: "c", Type: value.Float},
		{Name: "d", Type: value.Bool},
		{Name: "e", Type: value.Text},
	}}
	row := value.Row{
		value.NewInt(-42),
		value.NewText("hello 'world'"),
		value.NewNull(),
		value.NewBool(true),
		value.NewText(""),
	}
	rec, err := EncodeRow(schema, row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRow(schema, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if row[i].IsNull() != got[i].IsNull() {
			t.Fatalf("col %d null mismatch", i)
		}
		if !row[i].IsNull() && !value.Equal(row[i], got[i]) {
			t.Fatalf("col %d: %v != %v", i, row[i], got[i])
		}
	}
}

func TestRecordCodecProperty(t *testing.T) {
	schema := catalog.Schema{Columns: []catalog.Column{
		{Name: "a", Type: value.Int},
		{Name: "b", Type: value.Text},
		{Name: "c", Type: value.Float},
	}}
	if err := quick.Check(func(a int64, b string, c float64, aNull bool) bool {
		row := value.Row{value.NewInt(a), value.NewText(b), value.NewFloat(c)}
		if aNull {
			row[0] = value.NewNull()
		}
		rec, err := EncodeRow(schema, row)
		if err != nil {
			return false
		}
		got, err := DecodeRow(schema, rec, nil)
		if err != nil {
			return false
		}
		if aNull != got[0].IsNull() {
			return false
		}
		if !aNull && got[0].Int() != a {
			return false
		}
		return got[1].Text() == b && got[2].Float() == c
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecordCodecErrors(t *testing.T) {
	schema := catalog.Schema{Columns: []catalog.Column{{Name: "a", Type: value.Int}}}
	if _, err := EncodeRow(schema, value.Row{value.NewInt(1), value.NewInt(2)}); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	if _, err := EncodeRow(schema, value.Row{value.NewText("x")}); err == nil {
		t.Fatal("uncoercible type should fail")
	}
	if _, err := DecodeRow(schema, []byte{0}, nil); err == nil {
		t.Fatal("truncated record should fail")
	}
	if _, err := DecodeRow(schema, []byte{}, nil); err == nil {
		t.Fatal("empty record should fail")
	}
}

func TestPoolPinUnpinEvict(t *testing.T) {
	store := NewStore()
	pool := NewPool(store, 2)
	_, id1, err := pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id1, true)
	_, id2, _ := pool.NewPage()
	pool.Unpin(id2, true)
	_, id3, _ := pool.NewPage() // evicts id1 (LRU), flushing it
	pool.Unpin(id3, true)

	pg, err := pool.Pin(id1) // must read back the flushed copy
	if err != nil {
		t.Fatal(err)
	}
	if pg.ID() != id1 {
		t.Fatalf("read back wrong page: %d", pg.ID())
	}
	pool.Unpin(id1, false)
	if pool.Misses() == 0 {
		t.Fatal("expected at least one miss")
	}
}

func TestPoolRefusesEvictingPinned(t *testing.T) {
	store := NewStore()
	pool := NewPool(store, 2)
	_, id1, _ := pool.NewPage()
	_, id2, _ := pool.NewPage()
	if _, _, err := pool.NewPage(); err == nil {
		t.Fatal("pool of pinned pages should refuse new page")
	}
	pool.Unpin(id1, false)
	pool.Unpin(id2, false)
	if _, _, err := pool.NewPage(); err != nil {
		t.Fatalf("after unpin, new page should succeed: %v", err)
	}
}

func TestPoolUnpinUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unpin of unpinned page should panic")
		}
	}()
	pool := NewPool(NewStore(), 2)
	pool.Unpin(99, false)
}

func TestPoolDirtyDataSurvivesEviction(t *testing.T) {
	store := NewStore()
	pool := NewPool(store, 1)
	pg, id, _ := pool.NewPage()
	slot, err := pg.Insert([]byte("persist me"))
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(id, true)
	// Force eviction by churning other pages.
	for i := 0; i < 3; i++ {
		_, id2, _ := pool.NewPage()
		pool.Unpin(id2, false)
	}
	pg2, err := pool.Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Unpin(id, false)
	rec, err := pg2.Get(slot)
	if err != nil || string(rec) != "persist me" {
		t.Fatalf("data lost across eviction: %q %v", rec, err)
	}
}

func TestHeapInsertGetUpdateDeleteScan(t *testing.T) {
	pool := NewPool(NewStore(), 16)
	h := NewHeap(pool)
	var rids []RID
	for i := 0; i < 1000; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.Pages() < 2 {
		t.Fatalf("1000 records should span multiple pages, got %d", h.Pages())
	}
	rec, err := h.Get(rids[500])
	if err != nil || string(rec) != "record-0500" {
		t.Fatalf("get: %q %v", rec, err)
	}
	// Update in place.
	if ok, err := h.UpdateLogged(rids[500], []byte("u-500"), nil); err != nil || !ok {
		t.Fatalf("in-place update: ok=%v err=%v", ok, err)
	}
	if err := h.Delete(rids[502]); err != nil {
		t.Fatal(err)
	}
	n, err := h.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000-1 {
		t.Fatalf("count=%d, want 999", n)
	}
	// Scan sees the updated value and not the deleted one.
	seen := map[string]bool{}
	if err := h.Scan(func(rid RID, rec []byte) bool {
		seen[string(rec)] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !seen["u-500"] || seen["record-0500"] || seen["record-0502"] {
		t.Fatal("scan contents wrong")
	}
}

func TestHeapScanEarlyStop(t *testing.T) {
	pool := NewPool(NewStore(), 16)
	h := NewHeap(pool)
	for i := 0; i < 100; i++ {
		if _, err := h.Insert([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := h.Scan(func(RID, []byte) bool { n++; return n < 10 }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("scan visited %d, want 10", n)
	}
}

func TestBTreeInsertSearch(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 10000; i++ {
		bt.Insert(value.NewInt(int64(i%1000)), RID{Page: PageID(i / 1000), Slot: uint16(i % 1000)})
	}
	if bt.Len() != 10000 {
		t.Fatalf("len=%d", bt.Len())
	}
	if bt.Height() < 2 {
		t.Fatal("tree should have split")
	}
	rids := bt.Search(value.NewInt(37))
	if len(rids) != 10 {
		t.Fatalf("key 37 has %d postings, want 10", len(rids))
	}
	if bt.Search(value.NewInt(5000)) != nil {
		t.Fatal("absent key should return nil")
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 100; i++ {
		bt.Insert(value.NewInt(int64(i)), RID{Page: 1, Slot: uint16(i)})
	}
	if !bt.Delete(value.NewInt(50), RID{Page: 1, Slot: 50}) {
		t.Fatal("delete existing should succeed")
	}
	if bt.Delete(value.NewInt(50), RID{Page: 1, Slot: 50}) {
		t.Fatal("double delete should fail")
	}
	if bt.Search(value.NewInt(50)) != nil {
		t.Fatal("deleted key still found")
	}
	if bt.Len() != 99 {
		t.Fatalf("len=%d", bt.Len())
	}
}

func TestBTreeRange(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 1000; i++ {
		bt.Insert(value.NewInt(int64(i)), RID{Page: 1, Slot: uint16(i)})
	}
	var got []int64
	bt.Range(value.NewInt(100), value.NewInt(110), func(k value.Value, rid RID) bool {
		got = append(got, k.Int())
		return true
	})
	if len(got) != 11 || got[0] != 100 || got[10] != 110 {
		t.Fatalf("range [100,110]: %v", got)
	}
	// Unbounded below.
	count := 0
	bt.Range(value.NewNull(), value.NewInt(49), func(value.Value, RID) bool { count++; return true })
	if count != 50 {
		t.Fatalf("range (-inf,49]: %d", count)
	}
	// Unbounded above.
	count = 0
	bt.Range(value.NewInt(990), value.NewNull(), func(value.Value, RID) bool { count++; return true })
	if count != 10 {
		t.Fatalf("range [990,inf): %d", count)
	}
	// Early stop.
	count = 0
	bt.Range(value.NewNull(), value.NewNull(), func(value.Value, RID) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early stop: %d", count)
	}
}

func TestBTreeOrderedIterationProperty(t *testing.T) {
	if err := quick.Check(func(keys []int16) bool {
		bt := NewBTree()
		for i, k := range keys {
			bt.Insert(value.NewInt(int64(k)), RID{Page: 1, Slot: uint16(i)})
		}
		prev := int64(-1 << 62)
		ok := true
		n := 0
		bt.Range(value.NewNull(), value.NewNull(), func(k value.Value, rid RID) bool {
			if k.Int() < prev {
				ok = false
				return false
			}
			prev = k.Int()
			n++
			return true
		})
		return ok && n == len(keys)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeNullKeysIgnored(t *testing.T) {
	bt := NewBTree()
	bt.Insert(value.NewNull(), RID{Page: 1, Slot: 1})
	if bt.Len() != 0 {
		t.Fatal("NULL keys must not be indexed")
	}
	if bt.Search(value.NewNull()) != nil {
		t.Fatal("NULL search must return nil")
	}
	if bt.Delete(value.NewNull(), RID{Page: 1, Slot: 1}) {
		t.Fatal("NULL delete must be a no-op")
	}
}

func TestBTreeTextKeys(t *testing.T) {
	bt := NewBTree()
	words := []string{"pear", "apple", "fig", "banana", "cherry"}
	for i, w := range words {
		bt.Insert(value.NewText(w), RID{Page: 1, Slot: uint16(i)})
	}
	var got []string
	bt.Range(value.NewText("b"), value.NewText("e"), func(k value.Value, rid RID) bool {
		got = append(got, k.Text())
		return true
	})
	if len(got) != 2 || got[0] != "banana" || got[1] != "cherry" {
		t.Fatalf("text range: %v", got)
	}
}
