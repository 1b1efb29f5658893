// Package catalog holds the database schema: tables, columns, indexes, and
// per-table statistics used by the cost-based optimizer.
//
// In the paper's Table 1 classification the catalog and symbol table are
// COMMON data — touched by nearly every query regardless of what it does —
// which is why the parse and optimize stages keep them as their stage-owned
// working set.
package catalog

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"stagedb/internal/value"
)

// Column describes one table column.
type Column struct {
	Name       string
	Type       value.Type
	PrimaryKey bool
}

// Schema is an ordered column list.
type Schema struct {
	Columns []Column
}

// ColumnIndex returns the position of the named column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// PrimaryKeyIndex returns the position of the primary-key column, or -1.
func (s Schema) PrimaryKeyIndex() int {
	for i, c := range s.Columns {
		if c.PrimaryKey {
			return i
		}
	}
	return -1
}

// Validate checks a row against the schema, coercing values where SQL
// permits, and returns the normalized row.
func (s Schema) Validate(row value.Row) (value.Row, error) {
	if len(row) != len(s.Columns) {
		return nil, fmt.Errorf("catalog: row has %d values, schema has %d columns", len(row), len(s.Columns))
	}
	out := make(value.Row, len(row))
	for i, v := range row {
		cv, err := v.Coerce(s.Columns[i].Type)
		if err != nil {
			return nil, fmt.Errorf("catalog: column %s: %v", s.Columns[i].Name, err)
		}
		out[i] = cv
	}
	return out, nil
}

// ColumnStats summarizes one column for the optimizer.
type ColumnStats struct {
	Distinct int64
	Min, Max value.Value
}

// TableStats summarizes a table for the optimizer.
type TableStats struct {
	RowCount int64
	Columns  []ColumnStats // parallel to the schema
}

// Selectivity estimates the fraction of rows with column c equal to a
// constant: 1/distinct with a floor.
func (ts TableStats) Selectivity(col int) float64 {
	if col < 0 || col >= len(ts.Columns) {
		return 0.1
	}
	d := ts.Columns[col].Distinct
	if d <= 0 {
		return 0.1
	}
	return 1.0 / float64(d)
}

// RangeSelectivity estimates the fraction of rows with column col in
// [lo, hi] using a uniform assumption over [min, max].
func (ts TableStats) RangeSelectivity(col int, lo, hi value.Value) float64 {
	if col < 0 || col >= len(ts.Columns) {
		return 0.3
	}
	cs := ts.Columns[col]
	if cs.Min.IsNull() || cs.Max.IsNull() {
		return 0.3
	}
	minF, maxF := cs.Min.Float(), cs.Max.Float()
	if cs.Min.Type() == value.Text || maxF <= minF {
		return 0.3
	}
	loF, hiF := minF, maxF
	if !lo.IsNull() {
		loF = lo.Float()
	}
	if !hi.IsNull() {
		hiF = hi.Float()
	}
	if hiF < loF {
		return 0
	}
	frac := (hiF - loF) / (maxF - minF)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// Index describes a secondary (or primary) index on one column.
type Index struct {
	Name   string
	Table  string
	Column string
	ColIdx int
	Unique bool
}

// Table is a catalog entry.
type Table struct {
	ID      int
	Name    string
	Schema  Schema
	Stats   TableStats
	Indexes []*Index
}

// IndexOn returns the index covering the given column, or nil.
func (t *Table) IndexOn(col string) *Index {
	for _, ix := range t.Indexes {
		if ix.Column == col {
			return ix
		}
	}
	return nil
}

// Catalog is the set of tables. It is safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	nextID int
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Create registers a table. It fails when the name exists.
func (c *Catalog) Create(name string, schema Schema) (*Table, error) {
	if len(schema.Columns) == 0 {
		return nil, fmt.Errorf("catalog: table %s has no columns", name)
	}
	seen := make(map[string]bool, len(schema.Columns))
	for _, col := range schema.Columns {
		if seen[col.Name] {
			return nil, fmt.Errorf("catalog: duplicate column %s", col.Name)
		}
		seen[col.Name] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("catalog: table %s already exists", name)
	}
	t := &Table{
		ID:     c.nextID,
		Name:   name,
		Schema: schema,
		Stats:  TableStats{Columns: make([]ColumnStats, len(schema.Columns))},
	}
	c.nextID++
	c.tables[name] = t
	return t, nil
}

// Drop removes a table. It fails when the name is unknown.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("catalog: unknown table %s", name)
	}
	delete(c.tables, name)
	return nil
}

// Get looks up a table by name.
func (c *Catalog) Get(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %s", name)
	}
	return t, nil
}

// AddIndex registers an index on a table column.
func (c *Catalog) AddIndex(table, name, column string, unique bool) (*Index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[table]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %s", table)
	}
	ci := t.Schema.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("catalog: table %s has no column %s", table, column)
	}
	for _, ix := range t.Indexes {
		if ix.Name == name {
			return nil, fmt.Errorf("catalog: index %s already exists", name)
		}
	}
	ix := &Index{Name: name, Table: table, Column: column, ColIdx: ci, Unique: unique}
	t.Indexes = append(t.Indexes, ix)
	return ix, nil
}

// RemoveIndex unregisters an index whose build failed, so no plan binds to
// it. Unknown tables and indexes are ignored.
func (c *Catalog) RemoveIndex(table, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[table]
	if !ok {
		return
	}
	t.Indexes = slices.DeleteFunc(t.Indexes, func(ix *Index) bool { return ix.Name == name })
}

// List returns table names in sorted order.
func (c *Catalog) List() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// UpdateStats replaces a table's statistics (called by ANALYZE-style scans).
func (c *Catalog) UpdateStats(table string, stats TableStats) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[table]
	if !ok {
		return fmt.Errorf("catalog: unknown table %s", table)
	}
	t.Stats = stats
	return nil
}
