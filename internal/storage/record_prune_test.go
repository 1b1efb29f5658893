package storage

import (
	"math/rand"
	"strings"
	"testing"

	"stagedb/internal/catalog"
	"stagedb/internal/value"
)

// randSchemaRow draws a schema of 1–12 columns over all four types and a row
// for it: NULLs at random, TEXT from empty through two-byte-varint lengths.
func randSchemaRow(rng *rand.Rand) (catalog.Schema, value.Row) {
	n := 1 + rng.Intn(12)
	schema := catalog.Schema{Columns: make([]catalog.Column, n)}
	row := make(value.Row, n)
	types := []value.Type{value.Int, value.Float, value.Text, value.Bool}
	for i := range row {
		typ := types[rng.Intn(len(types))]
		schema.Columns[i] = catalog.Column{Name: string(rune('a' + i)), Type: typ}
		if rng.Intn(4) == 0 {
			continue // NULL
		}
		switch typ {
		case value.Int:
			row[i] = value.NewInt(rng.Int63() - rng.Int63())
		case value.Float:
			row[i] = value.NewFloat(rng.NormFloat64() * 1e6)
		case value.Bool:
			row[i] = value.NewBool(rng.Intn(2) == 1)
		case value.Text:
			// 0, short, exactly at and past the one-byte varint limit (127).
			lens := []int{0, 1 + rng.Intn(20), 127, 128, 129 + rng.Intn(400)}
			row[i] = value.NewText(strings.Repeat("x", lens[rng.Intn(len(lens))]))
		}
	}
	return schema, row
}

// randCols draws a column set: nil (all), empty, full, or a random subset.
func randCols(rng *rand.Rand, n int) []bool {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return make([]bool, n)
	}
	cols := make([]bool, n)
	for i := range cols {
		cols[i] = rng.Intn(2) == 1
	}
	return cols
}

func sameValue(a, b value.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return a.Type() == b.Type() && value.Equal(a, b)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestDecodeRowPrunedProperty: a pruned decode equals the full decode on the
// requested slots and is NULL elsewhere, and a damaged record — every
// truncation of a valid one, and a valid one with bytes appended — fails with
// the same error whether or not a column set is given: unselected columns are
// still walked and validated.
func TestDecodeRowPrunedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for iter := 0; iter < 500; iter++ {
		schema, row := randSchemaRow(rng)
		cols := randCols(rng, len(row))
		rec, err := EncodeRow(schema, row)
		if err != nil {
			t.Fatal(err)
		}
		full, err := DecodeRow(schema, rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := DecodeRow(schema, rec, cols)
		if err != nil {
			t.Fatalf("pruned decode of a valid record: %v", err)
		}
		if len(pruned) != len(full) {
			t.Fatalf("pruned row width %d, want %d", len(pruned), len(full))
		}
		for i := range full {
			if !sameValue(full[i], row[i]) {
				t.Fatalf("col %d: full decode %v, encoded %v", i, full[i], row[i])
			}
			want := full[i]
			if cols != nil && !cols[i] {
				want = value.NewNull()
			}
			if !sameValue(pruned[i], want) {
				t.Fatalf("col %d (cols=%v): pruned %v, want %v", i, cols, pruned[i], want)
			}
		}

		damaged := [][]byte{append(append([]byte(nil), rec...), 0), append(append([]byte(nil), rec...), 1, 2, 3)}
		for cut := 0; cut < len(rec); cut++ {
			damaged = append(damaged, rec[:cut])
		}
		for _, bad := range damaged {
			_, errFull := DecodeRow(schema, bad, nil)
			_, errPruned := DecodeRow(schema, bad, cols)
			if errText(errFull) != errText(errPruned) {
				t.Fatalf("record of %d/%d bytes, cols=%v: full decode says %q, pruned says %q",
					len(bad), len(rec), cols, errText(errFull), errText(errPruned))
			}
		}
	}
}

func TestDecodeRowColumnSetArity(t *testing.T) {
	schema := catalog.Schema{Columns: []catalog.Column{{Name: "a", Type: value.Int}, {Name: "b", Type: value.Int}}}
	rec, err := EncodeRow(schema, value.Row{value.NewInt(1), value.NewInt(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRow(schema, rec, []bool{true}); err == nil {
		t.Fatal("a column set of the wrong width should fail, not index out of range")
	}
}
