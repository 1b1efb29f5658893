package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"stagedb/internal/catalog"
	"stagedb/internal/value"
)

// EncodeRow serializes row per schema: a null bitmap followed by the non-null
// column payloads (Int/Float fixed 8 bytes, Bool 1 byte, Text uvarint length
// plus bytes).
func EncodeRow(schema catalog.Schema, row value.Row) ([]byte, error) {
	if len(row) != len(schema.Columns) {
		return nil, fmt.Errorf("storage: row/schema arity mismatch (%d vs %d)", len(row), len(schema.Columns))
	}
	bitmap := make([]byte, (len(row)+7)/8)
	buf := make([]byte, 0, 64)
	var tmp [10]byte
	for i, v := range row {
		if v.IsNull() {
			bitmap[i/8] |= 1 << (i % 8)
			continue
		}
		if v.Type() != schema.Columns[i].Type {
			cv, err := v.Coerce(schema.Columns[i].Type)
			if err != nil {
				return nil, fmt.Errorf("storage: column %s: %v", schema.Columns[i].Name, err)
			}
			v = cv
		}
		switch v.Type() {
		case value.Int:
			binary.LittleEndian.PutUint64(tmp[:8], uint64(v.Int()))
			buf = append(buf, tmp[:8]...)
		case value.Float:
			binary.LittleEndian.PutUint64(tmp[:8], math.Float64bits(v.Float()))
			buf = append(buf, tmp[:8]...)
		case value.Bool:
			if v.Bool() {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		case value.Text:
			n := binary.PutUvarint(tmp[:], uint64(len(v.Text())))
			buf = append(buf, tmp[:n]...)
			buf = append(buf, v.Text()...)
		default:
			return nil, fmt.Errorf("storage: cannot encode %s", v.Type())
		}
	}
	out := make([]byte, 0, len(bitmap)+len(buf))
	out = append(out, bitmap...)
	out = append(out, buf...)
	return out, nil
}

var errShortBitmap = errors.New("storage: record too short for null bitmap")

// DecodeRow deserializes a record produced by EncodeRow into a freshly
// allocated row; see DecodeRowInto for cols and the validation rules. DML,
// recovery, vacuum and ANALYZE use it: the rows they decode are theirs to
// keep.
func DecodeRow(schema catalog.Schema, rec []byte, cols []bool) (value.Row, error) {
	row := make(value.Row, len(schema.Columns))
	if err := DecodeRowInto(schema, rec, cols, row); err != nil {
		return nil, err
	}
	return row, nil
}

// DecodeRowInto deserializes a record produced by EncodeRow into dst, which
// must have the schema's width — the one row decoder. cols selects the
// columns to materialise: nil decodes every column; otherwise cols has one
// entry per schema column and a column whose entry is false is left NULL.
// The row always has the schema's width, so column indexes mean the same with
// and without a set. An unselected column is still walked and validated — the
// same truncation and trailing-byte errors, in the same order — it just costs
// no value (and, for TEXT, no string copy).
//
// Every slot of dst is written: NULL and unselected slots are reset to the
// zero Value, because dst is typically recycled storage still holding the
// previous row's values (the scans decode straight into exchange pages).
// On error dst holds an unspecified mix of old and new values.
//
//stagedb:hot
func DecodeRowInto(schema catalog.Schema, rec []byte, cols []bool, dst value.Row) error {
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
		dst[i] = value.Value{} // NULL, unless decoded below
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

// DecodeRowInto's failure constructors, kept out of line so the per-row loop
// itself holds no fmt call.

func errColumnSet(got, want int) error {
	return fmt.Errorf("storage: column set/schema arity mismatch (%d vs %d)", got, want)
}

func errRowWidth(got, want int) error {
	return fmt.Errorf("storage: decode target/schema arity mismatch (%d vs %d)", got, want)
}

func errTruncated(kind string, col int) error {
	return fmt.Errorf("storage: truncated %s column %d", kind, col)
}

func errUndecodable(t value.Type) error {
	return fmt.Errorf("storage: cannot decode %s", t)
}

func errTrailing(n int) error {
	return fmt.Errorf("storage: %d trailing bytes in record", n)
}
