// Package storage is a stub of the real internal/storage version codec for
// the verhdr golden suite. The analyzer skips packages whose path ends in
// "storage", so nothing here is flagged even though it writes headers raw.
package storage

import "encoding/binary"

// VerHdrLen mirrors the real codec: 8 bytes xmin + 8 bytes xmax.
const VerHdrLen = 16

type RID struct {
	PageID uint64
	Slot   uint16
}

func AppendVersion(dst []byte, xmin, xmax uint64, payload []byte) []byte {
	var hdr [VerHdrLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], xmin)
	binary.LittleEndian.PutUint64(hdr[8:16], xmax)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

func WithXmax(rec []byte, xmax uint64) ([]byte, error) {
	out := make([]byte, len(rec))
	copy(out, rec)
	binary.LittleEndian.PutUint64(out[8:16], xmax)
	return out, nil
}

func VersionOf(rec []byte) (xmin, xmax uint64, err error) {
	return binary.LittleEndian.Uint64(rec[0:8]), binary.LittleEndian.Uint64(rec[8:16]), nil
}

func PayloadOf(rec []byte) ([]byte, error) {
	return rec[VerHdrLen:], nil
}

type Heap struct{}

func (h *Heap) Get(rid RID) ([]byte, error)                    { return nil, nil }
func (h *Heap) Visit(rid RID, fn func(rec []byte) error) error { return nil }
func (h *Heap) Update(rid RID, rec []byte) error               { return nil }
func (h *Heap) Insert(rec []byte) (RID, error)                 { return RID{}, nil }
