package spill

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"stagedb/internal/value"
)

type countTracker struct {
	created, removed int
	rows, bytes      int64
}

func (t *countTracker) FileCreated() { t.created++ }
func (t *countTracker) FileRemoved() { t.removed++ }
func (t *countTracker) Wrote(rows, bytes int64) {
	t.rows += rows
	t.bytes += bytes
}

// TestRoundTrip pins the row codec across every value type (negative ints,
// non-finite-free floats, empty and quoted text, bools, NULLs) and the
// page framing across page boundaries.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := &countTracker{}
	f, err := Create(dir, tr)
	if err != nil {
		t.Fatal(err)
	}
	rows := []value.Row{
		{value.NewInt(0), value.NewInt(-1), value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64)},
		{value.NewFloat(0), value.NewFloat(-2.5), value.NewFloat(1e308)},
		{value.NewText(""), value.NewText("it's"), value.NewText(string(make([]byte, 40000)))},
		{value.NewBool(true), value.NewBool(false)},
		{value.NewNull()},
		{},
	}
	// Append enough copies to cross several page boundaries.
	const reps = 50
	for i := 0; i < reps; i++ {
		for _, r := range rows {
			if err := f.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	if f.Rows() != int64(reps*len(rows)) {
		t.Fatalf("Rows() = %d, want %d", f.Rows(), reps*len(rows))
	}
	r, err := f.Reader()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reps; i++ {
		for j, want := range rows {
			got, ok, err := r.Next()
			if err != nil || !ok {
				t.Fatalf("rep %d row %d: ok=%v err=%v", i, j, ok, err)
			}
			if got.String() != want.String() {
				t.Fatalf("rep %d row %d = %s, want %s", i, j, got, want)
			}
		}
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("expected clean EOF, got ok=%v err=%v", ok, err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if tr.created != 1 || tr.removed != 1 {
		t.Fatalf("tracker: %+v", tr)
	}
	if tr.rows != int64(reps*len(rows)) || tr.bytes == 0 {
		t.Fatalf("tracker volume: %+v", tr)
	}
	left, err := filepath.Glob(filepath.Join(dir, "stagedb-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("spill files left on disk: %v", left)
	}
}

// TestCloseBeforeFinishRemoves: closing an unfinished file (the abandonment
// path) flushes nothing durable but still removes it.
func TestCloseBeforeFinishRemoves(t *testing.T) {
	dir := t.TempDir()
	f, err := Create(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(value.Row{value.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("dir not empty after Close: %v", ents)
	}
	if _, err := f.Reader(); err == nil {
		t.Fatal("Reader on a removed file must fail")
	}
}

// TestDecodeRowIntoOverwritesStaleStorage: decoding into storage that still
// holds another row's values (non-NULL, text, wider than the new row) yields
// exactly what a fresh decode does, NULLs and text included.
func TestDecodeRowIntoOverwritesStaleStorage(t *testing.T) {
	rows := []value.Row{
		{value.NewNull(), value.NewText("fresh"), value.NewInt(-7), value.NewNull()},
		{value.NewText(""), value.NewNull(), value.NewBool(false), value.NewFloat(2.5)},
		{value.NewNull()},
		{},
	}
	stale := value.Row{value.NewText("stale-0"), value.NewInt(42), value.NewText("stale-2"),
		value.NewFloat(9.5), value.NewBool(true)}
	for i, r := range rows {
		buf := AppendRow(nil, r)
		want, rest, err := DecodeRow(buf)
		if err != nil || len(rest) != 0 {
			t.Fatalf("row %d: DecodeRow rest=%d err=%v", i, len(rest), err)
		}
		dst := append(value.Row(nil), stale...)
		got, rest, err := DecodeRowInto(buf, dst)
		if err != nil || len(rest) != 0 {
			t.Fatalf("row %d: DecodeRowInto rest=%d err=%v", i, len(rest), err)
		}
		if got.String() != want.String() || got.String() != r.String() {
			t.Fatalf("row %d: DecodeRowInto = %s, DecodeRow = %s, want %s", i, got, want, r)
		}
		for j := range got {
			if got[j].IsNull() != r[j].IsNull() {
				t.Fatalf("row %d value %d: NULL-ness %v, want %v", i, j, got[j].IsNull(), r[j].IsNull())
			}
		}
		if &got[:1][0] != &dst[:1][0] {
			t.Fatalf("row %d: DecodeRowInto did not reuse dst's storage", i)
		}
	}
}

// intRun writes n two-column integer rows to a finished spill file.
func intRun(t *testing.T, n int) *File {
	t.Helper()
	f, err := Create(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	for i := 0; i < n; i++ {
		if err := f.Append(value.Row{value.NewInt(int64(i)), value.NewInt(int64(3*i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestReaderNextAllocatesNothing: in steady state a Reader decodes each row
// into the row it returned last — no allocation per row.
func TestReaderNextAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector builds decode every row into fresh storage")
	}
	r, err := intRun(t, 20000).Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	next := func() {
		if _, ok, err := r.Next(); !ok || err != nil {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
	}
	next() // first page buffer and row
	if allocs := testing.AllocsPerRun(5000, next); allocs != 0 {
		t.Fatalf("Reader.Next allocates %.2f objects per row, want 0", allocs)
	}
}

// TestRetainedSpillRowNeedsCopy pins the reader's row lifetime: a row is
// valid until the next Next, a copy stays valid for good, and a row kept
// without a copy is overwritten — by the next row, or, in race-detector
// builds, by a sentinel that no real row holds.
func TestRetainedSpillRowNeedsCopy(t *testing.T) {
	r, err := intRun(t, 3).Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var kept, copies []value.Row
	for {
		row, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		kept = append(kept, row)
		copies = append(copies, row.Clone())
	}
	for i, c := range copies {
		if want := fmt.Sprintf("(%d, %d)", i, 3*i+1); c.String() != want {
			t.Fatalf("copy of row %d reads %s, want %s", i, c, want)
		}
	}
	if raceEnabled {
		if got := kept[0][0]; got.Type() != value.Text || got.Text() != "<recycled spill row>" {
			t.Fatalf("a row kept past the next Next reads %v, want the recycled-row sentinel", got)
		}
	} else if kept[0].String() == copies[0].String() {
		t.Fatalf("a row kept past the next Next still reads %s: the reader did not decode over it", kept[0])
	}
}

// TestDecodeRowRejectsImpossibleWidth: a row header claiming more values
// than the buffer has bytes left is corrupt (every value takes at least its
// tag byte), and fails as an error instead of sizing a row from it — the
// codec also decodes wire frames a client sends.
func TestDecodeRowRejectsImpossibleWidth(t *testing.T) {
	for _, buf := range [][]byte{
		binary.AppendUvarint(nil, 1<<62),
		append(binary.AppendUvarint(nil, 3), tagInt, 2),
	} {
		if _, _, err := DecodeRow(buf); err == nil {
			t.Fatalf("DecodeRow(%x) decoded a row", buf)
		}
	}
}
