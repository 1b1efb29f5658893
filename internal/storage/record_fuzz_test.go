package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"stagedb/internal/catalog"
	"stagedb/internal/value"
)

// refDecodeRow is the plain column walk, kept here as the reference the
// compiled RowDecoder must agree with: every column in order, the null
// bitmap bit, the type switch and the length checks per column, no
// fixed-offset start.
func refDecodeRow(schema catalog.Schema, rec []byte, cols []bool, dst value.Row) error {
	n := len(schema.Columns)
	if cols != nil && len(cols) != n {
		return errColumnSet(len(cols), n)
	}
	if len(dst) != n {
		return errRowWidth(len(dst), n)
	}
	bitmapLen := (n + 7) / 8
	if len(rec) < bitmapLen {
		return errShortBitmap
	}
	bitmap := rec[:bitmapLen]
	data := rec[bitmapLen:]
	for i := 0; i < n; i++ {
		dst[i] = value.Value{}
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			continue
		}
		want := cols == nil || cols[i]
		switch schema.Columns[i].Type {
		case value.Int:
			if len(data) < 8 {
				return errTruncated("int", i)
			}
			if want {
				dst[i] = value.NewInt(int64(binary.LittleEndian.Uint64(data)))
			}
			data = data[8:]
		case value.Float:
			if len(data) < 8 {
				return errTruncated("float", i)
			}
			if want {
				dst[i] = value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
			data = data[8:]
		case value.Bool:
			if len(data) < 1 {
				return errTruncated("bool", i)
			}
			if want {
				dst[i] = value.NewBool(data[0] != 0)
			}
			data = data[1:]
		case value.Text:
			length, consumed := binary.Uvarint(data)
			if consumed <= 0 || uint64(len(data)-consumed) < length {
				return errTruncated("text", i)
			}
			if want {
				dst[i] = value.NewText(string(data[consumed : consumed+int(length)]))
			}
			data = data[consumed+int(length):]
		default:
			return errUndecodable(schema.Columns[i].Type)
		}
	}
	if len(data) != 0 {
		return errTrailing(len(data))
	}
	return nil
}

var fuzzTypes = [4]value.Type{value.Int, value.Float, value.Bool, value.Text}

// fuzzSchema reads a schema of 1–40 columns off types, one byte per column:
// enough for a fixed-width run longer than the decoder's maxPrefix.
func fuzzSchema(types []byte) catalog.Schema {
	n := min(max(len(types), 1), 40)
	schema := catalog.Schema{Columns: make([]catalog.Column, n)}
	for i := range schema.Columns {
		typ := value.Int
		if i < len(types) {
			typ = fuzzTypes[types[i]%4]
		}
		schema.Columns[i] = catalog.Column{Name: string(rune('a' + i)), Type: typ}
	}
	return schema
}

// fuzzCols reads a column set off colset: empty means nil (every column),
// otherwise bit i of the bytes selects column i.
func fuzzCols(colset []byte, n int) []bool {
	if len(colset) == 0 {
		return nil
	}
	cols := make([]bool, n)
	for i := range cols {
		cols[i] = colset[i/8%len(colset)]&(1<<(i%8)) != 0
	}
	return cols
}

// fuzzRow builds a row of schema, NULL wherever bit i of nulls is set;
// TEXT lengths reach past the one-byte varint limit.
func fuzzRow(schema catalog.Schema, nulls uint64) value.Row {
	row := make(value.Row, len(schema.Columns))
	for i, c := range schema.Columns {
		if nulls&(1<<i) != 0 {
			continue
		}
		switch c.Type {
		case value.Int:
			row[i] = value.NewInt(int64(i+1) * -0x0102030405060708)
		case value.Float:
			row[i] = value.NewFloat(float64(i) + 0.5)
		case value.Bool:
			row[i] = value.NewBool(i%2 == 0)
		case value.Text:
			row[i] = value.NewText(strings.Repeat(string(rune('A'+i)), i*37%300))
		}
	}
	return row
}

// checkDecode requires the compiled decoder, and DecodeRowInto's one-off
// walk, to return what the reference walk returns on rec: the same error
// text, and on success the same value in every slot of a row that held
// stale values and NULLs before.
func checkDecode(t *testing.T, schema catalog.Schema, cols []bool, rec []byte) {
	t.Helper()
	n := len(schema.Columns)
	want := make(value.Row, n)
	wantErr := refDecodeRow(schema, rec, cols, want)
	dec, err := NewRowDecoder(schema, cols)
	if err != nil {
		t.Fatalf("NewRowDecoder: %v", err)
	}
	for name, decode := range map[string]func(value.Row) error{
		"compiled": func(dst value.Row) error { return dec.Decode(rec, dst) },
		"one-off":  func(dst value.Row) error { return DecodeRowInto(schema, rec, cols, dst) },
	} {
		got := make(value.Row, n)
		for i := range got {
			if i%3 != 0 {
				got[i] = value.NewText("stale")
			}
		}
		gotErr := decode(got)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s: schema %v cols %v rec %x: error %q, reference %q", name, schema.Columns, cols, rec, errText(gotErr), errText(wantErr))
		}
		if wantErr != nil {
			continue
		}
		for i := range want {
			if !sameValue(got[i], want[i]) {
				t.Fatalf("%s: schema %v cols %v rec %x: column %d = %v, reference %v", name, schema.Columns, cols, rec, i, got[i], want[i])
			}
		}
	}
}

// FuzzRowDecoder: over random schemas of 1–40 columns of every type (so
// null bitmaps of up to five bytes), random column sets and records — a
// raw one as the fuzzer mutates it, an encoded row with NULLs wherever
// nulls says, and that row cut short by cut bytes with extra appended — the
// compiled decoder (and DecodeRowInto) must agree with the plain reference
// walk, values and error text alike. The seeds are EncodeRow output with a
// NULL inside the fixed-width prefix, with TEXT first, with only
// fixed-width columns, and with a fixed-width run longer than maxPrefix:
// the prefix cut off at column 32, its four-byte null mask (a NULL in bit
// 31), its largest offsets, and a NULL in a fixed-width column past the cut.
func FuzzRowDecoder(f *testing.F) {
	I, F, B, T := byte(0), byte(1), byte(2), byte(3)
	// 36 leading INT/FLOAT columns, then TEXT, BOOL, INT, TEXT: 40 in all.
	long := append(bytes.Repeat([]byte{I, F}, 18), T, B, I, T)
	seeds := []struct {
		types []byte
		cols  []byte
		nulls uint64
	}{
		{[]byte{I, I, I, T}, []byte{0b0001}, 1 << 1},                        // NULL inside the prefix
		{[]byte{T, I, B, F}, nil, 0},                                        // TEXT first: no prefix
		{[]byte{I, F, B, I, F, B, I, F, B, I, F, B}, []byte{0x0a, 0x01}, 0}, // all fixed, two-byte bitmap
		{[]byte{I, I, I, I, I, I, I, I, I, I, T, I, T, B, F, I, I, T, B, I}, []byte{0x81, 0x40, 0x08}, 1 << 9},
		{[]byte{F, B, T, I}, []byte{0xff}, 1<<0 | 1<<3},
		{long, []byte{0x81, 0x00, 0x00, 0x84, 0x1f}, 0},       // prefix cut at maxPrefix
		{long, []byte{0x81, 0x00, 0x00, 0x84, 0x1f}, 1 << 31}, // NULL in the mask's last bit
		{long, nil, 1 << 34}, // NULL in a fixed column past the cut
		{long, []byte{0xff}, 1<<31 | 1<<34},
	}
	for _, s := range seeds {
		schema := fuzzSchema(s.types)
		rec, err := EncodeRow(schema, fuzzRow(schema, s.nulls))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s.types, s.cols, s.nulls, rec, uint8(0), []byte(nil))
		f.Add(s.types, s.cols, s.nulls^0x5, rec, uint8(3), []byte{0x01})
	}
	f.Fuzz(func(t *testing.T, types, colset []byte, nulls uint64, rec []byte, cut uint8, extra []byte) {
		schema := fuzzSchema(types)
		cols := fuzzCols(colset, len(schema.Columns))
		built, err := EncodeRow(schema, fuzzRow(schema, nulls))
		if err != nil {
			t.Fatal(err)
		}
		keep := len(built) - min(int(cut), len(built))
		mangled := append(built[:keep:keep], extra...)
		for _, r := range [][]byte{rec, built, mangled} {
			checkDecode(t, schema, cols, r)
		}
	})
}
