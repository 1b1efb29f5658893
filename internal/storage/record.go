package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

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
// allocated row; see RowDecoder for cols and the validation rules. DML,
// recovery, vacuum and ANALYZE use it: the rows they decode are theirs to
// keep.
func DecodeRow(schema catalog.Schema, rec []byte, cols []bool) (value.Row, error) {
	row := make(value.Row, len(schema.Columns))
	if err := DecodeRowInto(schema, rec, cols, row); err != nil {
		return nil, err
	}
	return row, nil
}

// DecodeRowInto deserializes a record produced by EncodeRow into dst, with
// RowDecoder's rules. A one-off call does not pay for laying out the
// fixed-offset prefix: its walk starts at column 0. Readers that decode
// many records compile a decoder once with NewRowDecoder.
func DecodeRowInto(schema catalog.Schema, rec []byte, cols []bool, dst value.Row) error {
	d, err := walkDecoder(schema, cols)
	if err != nil {
		return err
	}
	return d.Decode(rec, dst)
}

// maxPrefix bounds the leading fixed-width columns a RowDecoder loads at
// fixed offsets (one bit each in its uint32 masks); columns past it are
// walked.
const maxPrefix = 32

// RowDecoder is the row decoder, compiled once per reader from a schema and
// a column set. cols selects the columns to materialise: nil decodes every
// column; otherwise cols has one entry per schema column and a column whose
// entry is false is left NULL. The row always has the schema's width, so
// column indexes mean the same with and without a set. An unselected column
// is still walked and validated — the same truncation and trailing-byte
// errors, in the same order — it just costs no value (and, for TEXT, no
// string copy).
//
// The record's leading run of INT, FLOAT and BOOL columns (the prefix) sits
// at fixed byte offsets whenever none of it is NULL. Decode checks that on
// the record's own null bitmap: if the prefix is all present, it loads the
// selected prefix columns at their offsets and starts the column walk after
// the prefix; otherwise the walk starts at column 0. Either way one walk
// validates the rest of the record.
//
// A RowDecoder is a fixed-size value holding no per-column storage of its
// own, so building one allocates nothing.
type RowDecoder struct {
	columns   []catalog.Column
	cols      []bool
	bitmapLen int
	prefix    int              // leading fixed-width columns, at most maxPrefix
	prefixLen int              // their encoded bytes when none is NULL
	nullBytes int              // the null-bitmap bytes covering them
	nullMask  uint32           // their bits in the null bitmap
	want      uint32           // the prefix columns cols selects
	floats    uint32           // the FLOAT prefix columns
	bools     uint32           // the BOOL prefix columns
	off       [maxPrefix]uint8 // byte offset of each prefix column past the bitmap
}

// NewRowDecoder compiles the decoder of schema's records for the column set
// cols (nil: every column).
func NewRowDecoder(schema catalog.Schema, cols []bool) (d RowDecoder, err error) {
	if d, err = walkDecoder(schema, cols); err != nil {
		return d, err
	}
	for n := len(schema.Columns); d.prefix < n && d.prefix < maxPrefix; {
		bit := uint32(1) << d.prefix
		var width int
		switch schema.Columns[d.prefix].Type {
		case value.Int:
			width = 8
		case value.Float:
			width = 8
			d.floats |= bit
		case value.Bool:
			width = 1
			d.bools |= bit
		}
		if width == 0 {
			break
		}
		d.off[d.prefix] = uint8(d.prefixLen) // at most (maxPrefix-1)*8
		d.nullMask |= bit
		if cols == nil || cols[d.prefix] {
			d.want |= bit
		}
		d.prefixLen += width
		d.prefix++
	}
	d.nullBytes = (d.prefix + 7) / 8
	return d, nil
}

// walkDecoder is a decoder with an empty prefix: its walk always starts at
// column 0.
func walkDecoder(schema catalog.Schema, cols []bool) (RowDecoder, error) {
	n := len(schema.Columns)
	if cols != nil && len(cols) != n {
		return RowDecoder{}, errColumnSet(len(cols), n)
	}
	return RowDecoder{columns: schema.Columns, cols: cols, bitmapLen: (n + 7) / 8}, nil
}

// Decode deserializes a record produced by EncodeRow into dst, which must
// have the schema's width.
//
// Every slot of dst is set: NULL and unselected slots end up the zero
// Value, because dst is typically recycled storage still holding the
// previous row's values (the scans decode straight into exchange pages).
// On error dst holds an unspecified mix of old and new values.
//
//stagedb:hot
func (d *RowDecoder) Decode(rec []byte, dst value.Row) error {
	n := len(d.columns)
	if len(dst) != n {
		return errRowWidth(len(dst), n)
	}
	if len(rec) < d.bitmapLen {
		return errShortBitmap
	}
	bitmap, data := rec[:d.bitmapLen], rec[d.bitmapLen:]
	from := 0
	if d.prefix > 0 && len(data) >= d.prefixLen {
		var nulls uint32
		for i, b := range bitmap[:d.nullBytes] {
			nulls |= uint32(b) << (8 * i)
		}
		if nulls&d.nullMask == 0 {
			for w := d.nullMask &^ d.want; w != 0; w &= w - 1 {
				setNull(&dst[bits.TrailingZeros32(w)])
			}
			for w := d.want; w != 0; w &= w - 1 {
				i := bits.TrailingZeros32(w)
				b := data[d.off[i]:]
				switch {
				case d.floats&(1<<i) != 0:
					dst[i] = value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
				case d.bools&(1<<i) != 0:
					dst[i] = value.NewBool(b[0] != 0)
				default:
					dst[i] = value.NewInt(int64(binary.LittleEndian.Uint64(b)))
				}
			}
			from, data = d.prefix, data[d.prefixLen:]
		}
	}
	// The one column walk, from the first column not yet decoded.
	for i := uint(from); i < uint(n); i++ {
		setNull(&dst[i]) // unless decoded below
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			continue
		}
		want := d.cols == nil || d.cols[i]
		switch d.columns[i].Type {
		case value.Int:
			if len(data) < 8 {
				return errTruncated("int", int(i))
			}
			if want {
				dst[i] = value.NewInt(int64(binary.LittleEndian.Uint64(data)))
			}
			data = data[8:]
		case value.Float:
			if len(data) < 8 {
				return errTruncated("float", int(i))
			}
			if want {
				dst[i] = value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
			data = data[8:]
		case value.Bool:
			if len(data) < 1 {
				return errTruncated("bool", int(i))
			}
			if want {
				dst[i] = value.NewBool(data[0] != 0)
			}
			data = data[1:]
		case value.Text:
			length, consumed := binary.Uvarint(data)
			if consumed <= 0 || uint64(len(data)-consumed) < length {
				return errTruncated("text", int(i))
			}
			if want {
				dst[i] = value.NewText(string(data[consumed : consumed+int(length)]))
			}
			data = data[consumed+int(length):]
		default:
			return errUndecodable(d.columns[i].Type)
		}
	}
	if len(data) != 0 {
		return errTrailing(len(data))
	}
	return nil
}

// setNull makes *v NULL. A reused row (a probe row, a recycled page slot
// that held NULL) often already holds NULL there: the check skips the
// store and its write barrier.
//
//stagedb:hot
func setNull(v *value.Value) {
	if !v.IsNull() {
		*v = value.Value{}
	}
}

// The decoder's failure constructors, kept out of line so the per-row loop
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
