// Package spill is the temp-file-backed run layer behind the memory-bounded
// stateful operators (external sort, spilling hash aggregation, grace hash
// join). A File is an append-then-read sequence of rows serialized into
// framed pages on disk:
//
//   - A producer Creates a file, Appends rows, and Finishes it. Finish
//     flushes buffered pages and closes the descriptor, so an operator may
//     hold hundreds of finished runs without holding hundreds of fds.
//   - A consumer opens a Reader (re-opening the file by path) and streams
//     rows back in append order. Readers hold one fd, one page buffer and
//     one row, so a k-way merge costs k descriptors regardless of run count.
//   - Each side holds one page buffer and no other: a writer frames its page
//     in place and writes it with one Write, a reader reads a frame header
//     and then the page body straight into its buffer. An open file costs
//     about pageBytes of memory, whichever side it is on.
//   - A row returned by Reader.Next is the reader's own storage: it is valid
//     until the next Next or Close on that reader, which decodes the next
//     row over it. A consumer that keeps a row longer copies it (an operator
//     arena, value.Row.Clone); one that encodes it on the spot (a split
//     re-routing rows into deeper partitions) or copies its values out (a
//     group key, a MIN/MAX) needs nothing. Race-detector builds overwrite
//     the previous row with a sentinel instead (reader_race.go), so a row
//     kept by mistake reads as a wrong value under go test -race.
//   - Close removes the file from disk. It is idempotent and safe at any
//     point of the lifecycle — operators call it from Close on every path
//     (drained, abandoned mid-merge, cancelled), which is what keeps temp
//     directories clean after early termination.
//
// The row codec is self-describing (type byte per value), so spilled rows do
// not need a catalog schema — intermediate rows (projections, join concats,
// serialized aggregate state) spill as readily as base-table rows.
package spill

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"stagedb/internal/value"
)

// Tracker observes file lifecycle and write volume. The executor's spill
// metrics implement it; a nil Tracker discards the events.
type Tracker interface {
	// FileCreated records one spill file coming into existence.
	FileCreated()
	// FileRemoved records one spill file removed from disk.
	FileRemoved()
	// Wrote records rows and bytes appended to spill storage.
	Wrote(rows int64, bytes int64)
}

// pageBytes is the serialization unit: Append gathers encoded rows until the
// page buffer passes this size, then frames and writes it.
const pageBytes = 32 << 10

// frameBytes is the fixed page frame header: the page's row count and body
// length, little-endian uint32s. A writer reserves it at the front of its
// page buffer, so a framed page goes out in one Write.
const frameBytes = 8

// value type tags in the on-disk codec.
const (
	tagNull = iota
	tagInt
	tagFloat
	tagText
	tagBool
)

// File is one temp-file-backed row sequence.
type File struct {
	path    string
	f       *os.File // write descriptor; nil once Finished
	page    []byte   // frame header space, then the encoded rows of the page under construction
	pageN   int      // rows in the page under construction
	rows    int64
	vals    int64
	bytes   int64
	tracker Tracker
	removed bool
}

// Create makes an empty spill file in dir (os.TempDir() when empty).
func Create(dir string, tracker Tracker) (*File, error) {
	f, err := os.CreateTemp(dir, "stagedb-spill-*.run")
	if err != nil {
		return nil, fmt.Errorf("spill: create: %w", err)
	}
	if tracker != nil {
		tracker.FileCreated()
	}
	// The slack holds the row that carries a page past pageBytes, unless
	// that row is unusually wide.
	page := make([]byte, frameBytes, frameBytes+pageBytes+pageBytes/8)
	return &File{path: f.Name(), f: f, page: page, tracker: tracker}, nil
}

// Append adds one row to the file. Only valid before Finish.
func (s *File) Append(row value.Row) error {
	if s.f == nil {
		return fmt.Errorf("spill: append to finished file %s", s.path)
	}
	s.page = AppendRow(s.page, row)
	s.pageN++
	s.rows++
	s.vals += int64(len(row))
	if len(s.page)-frameBytes >= pageBytes {
		return s.flushPage()
	}
	return nil
}

// flushPage frames the page under construction in its reserved header and
// writes it.
func (s *File) flushPage() error {
	if s.pageN == 0 {
		return nil
	}
	body := len(s.page) - frameBytes
	if uint64(body) > math.MaxUint32 {
		return fmt.Errorf("spill: %d-byte page in %s exceeds the frame limit", body, s.path)
	}
	binary.LittleEndian.PutUint32(s.page[0:], uint32(s.pageN))
	binary.LittleEndian.PutUint32(s.page[4:], uint32(body))
	if _, err := s.f.Write(s.page); err != nil {
		return err
	}
	s.bytes += int64(len(s.page))
	if s.tracker != nil {
		s.tracker.Wrote(int64(s.pageN), int64(len(s.page)))
	}
	s.page, s.pageN = s.page[:frameBytes], 0
	return nil
}

// Finish writes the last page, closes the write descriptor and drops the
// page buffer. The file stays on disk for Readers until Close. The
// descriptor is closed even when the write fails (ENOSPC mid-spill is the
// expected failure mode here; the teardown path must not leak an fd per
// failed file).
func (s *File) Finish() error {
	if s.f == nil {
		return nil
	}
	err := s.flushPage()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f, s.page = nil, nil
	return err
}

// Rows reports the number of rows appended.
func (s *File) Rows() int64 { return s.rows }

// Values reports the total number of values across all appended rows —
// with Rows and Bytes, enough for a decoded-size estimate (value structs
// are a fixed in-memory cost the serialized form compresses away).
func (s *File) Values() int64 { return s.vals }

// Bytes reports the serialized size written so far.
func (s *File) Bytes() int64 { return s.bytes }

// Close finishes the file if needed and removes it from disk. Idempotent.
func (s *File) Close() error {
	err := s.Finish()
	if !s.removed {
		s.removed = true
		if rmErr := os.Remove(s.path); rmErr != nil && err == nil {
			err = rmErr
		}
		if s.tracker != nil {
			s.tracker.FileRemoved()
		}
	}
	return err
}

// Reader streams a finished file's rows in append order.
type Reader struct {
	f    *os.File
	hdr  [frameBytes]byte
	buf  []byte    // page storage, reused page after page
	page []byte    // remaining undecoded bytes of the current page
	left int       // rows remaining in the current page
	row  value.Row // the row Next returned last; the next row decodes over it
}

// Reader opens a streaming reader over the finished file.
func (s *File) Reader() (*Reader, error) {
	if s.f != nil {
		return nil, fmt.Errorf("spill: reader on unfinished file %s (call Finish)", s.path)
	}
	if s.removed {
		return nil, fmt.Errorf("spill: reader on removed file %s", s.path)
	}
	f, err := os.Open(s.path)
	if err != nil {
		return nil, err
	}
	return &Reader{f: f}, nil
}

// Next returns the next row; ok is false at end of file. The row is valid
// until the next Next or Close on r (see the package doc).
func (r *Reader) Next() (row value.Row, ok bool, err error) {
	r.row = recycleRow(r.row)
	for r.left == 0 {
		if _, err := io.ReadFull(r.f, r.hdr[:]); err == io.EOF {
			return nil, false, nil
		} else if err != nil {
			return nil, false, fmt.Errorf("spill: page header: %w", err)
		}
		nrows := binary.LittleEndian.Uint32(r.hdr[0:])
		nbytes := int(binary.LittleEndian.Uint32(r.hdr[4:]))
		if cap(r.buf) < nbytes {
			r.buf = make([]byte, nbytes)
		}
		r.buf = r.buf[:nbytes]
		r.page = r.buf
		if _, err := io.ReadFull(r.f, r.page); err != nil {
			return nil, false, fmt.Errorf("spill: page body: %w", err)
		}
		r.left = int(nrows)
	}
	row, rest, err := DecodeRowInto(r.page, r.row)
	if err != nil {
		return nil, false, err
	}
	r.row, r.page = row, rest
	r.left--
	return row, true, nil
}

// Close releases the reader's descriptor (the file itself stays until
// File.Close removes it) and the row Next returned last.
func (r *Reader) Close() error {
	r.row = recycleRow(r.row)
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// --- row codec ---

// AppendRow appends the serialized row to dst and returns the extended
// slice. The format is a self-delimiting varint-tagged encoding (column
// count, then one tag byte plus payload per value); it is shared by the
// spill files and the network server's result-page frames, so a wire Page
// frame is exactly the rows of one pooled exchange page in spill encoding.
//
//stagedb:hot
func AppendRow(dst []byte, row value.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		switch v.Type() {
		case value.Null:
			dst = append(dst, tagNull)
		case value.Int:
			dst = append(dst, tagInt)
			dst = binary.AppendVarint(dst, v.Int())
		case value.Float:
			dst = append(dst, tagFloat)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
		case value.Text:
			s := v.Text()
			dst = append(dst, tagText)
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		case value.Bool:
			b := byte(0)
			if v.Bool() {
				b = 1
			}
			dst = append(dst, tagBool, b)
		}
	}
	return dst
}

// DecodeRow reads one AppendRow-encoded row off the front of buf into a
// fresh row, returning the remainder.
func DecodeRow(buf []byte) (value.Row, []byte, error) {
	return DecodeRowInto(buf, nil)
}

// DecodeRowInto is DecodeRow decoding into dst's storage when its capacity
// suffices (a fresh row otherwise). Every slot of the returned row is
// written, whatever dst held before; text payloads are copied out of buf.
func DecodeRowInto(buf []byte, dst value.Row) (value.Row, []byte, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("spill: corrupt row header")
	}
	buf = buf[sz:]
	if n > uint64(len(buf)) { // every value takes at least its tag byte
		return nil, nil, fmt.Errorf("spill: truncated row")
	}
	if dst == nil || uint64(cap(dst)) < n {
		dst = make(value.Row, n)
	}
	row := dst[:n]
	for i := range row {
		if len(buf) == 0 {
			return nil, nil, fmt.Errorf("spill: truncated row")
		}
		tag := buf[0]
		buf = buf[1:]
		switch tag {
		case tagNull:
			row[i] = value.NewNull()
		case tagInt:
			v, sz := binary.Varint(buf)
			if sz <= 0 {
				return nil, nil, fmt.Errorf("spill: corrupt int")
			}
			buf = buf[sz:]
			row[i] = value.NewInt(v)
		case tagFloat:
			if len(buf) < 8 {
				return nil, nil, fmt.Errorf("spill: corrupt float")
			}
			row[i] = value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf)))
			buf = buf[8:]
		case tagText:
			n, sz := binary.Uvarint(buf)
			if sz <= 0 || len(buf[sz:]) < int(n) {
				return nil, nil, fmt.Errorf("spill: corrupt text")
			}
			buf = buf[sz:]
			row[i] = value.NewText(string(buf[:n]))
			buf = buf[n:]
		case tagBool:
			if len(buf) < 1 {
				return nil, nil, fmt.Errorf("spill: corrupt bool")
			}
			row[i] = value.NewBool(buf[0] == 1)
			buf = buf[1:]
		default:
			return nil, nil, fmt.Errorf("spill: unknown value tag %d", tag)
		}
	}
	return row, buf, nil
}
