// Package spill stands in for the spill-file layer: a Reader hands out rows
// it decodes the next row over.
package spill

import "rowretain/internal/value"

// Reader stands in for spill.Reader.
type Reader struct{ row value.Row }

// Next returns the next row, valid until the next Next on r.
func (r *Reader) Next() (value.Row, bool, error) { return r.row, r.row != nil, nil }
