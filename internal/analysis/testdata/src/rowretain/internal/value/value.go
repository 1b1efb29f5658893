// Package value stands in for the engine's value package: the row type the
// exchange pages and the spill readers share.
package value

// Value stands in for value.Value.
type Value struct{ i int64 }

// Row stands in for value.Row.
type Row []Value

// Clone copies a row into storage of its own.
func (r Row) Clone() Row { return append(Row(nil), r...) }
