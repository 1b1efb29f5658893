// Package exec is the rowretain golden package: a stand-in for the engine's
// exchange pages (Page, its Rows and Row accessor), an operator arena, and
// the operator shapes that keep rows, from pages and from spill readers — its
// import path ends in internal/exec, so the analyzer applies.
package exec

import (
	"rowretain/internal/exec/spill"
	"rowretain/internal/value"
)

// Value and Row are the engine's value types.
type (
	Value = value.Value
	Row   = value.Row
)

// Page stands in for the pooled exchange page.
type Page struct {
	Rows []Row
}

// Row returns a row of the page: the receiver holds the page, so the caller
// may use the row for as long as it holds the page too.
func (p *Page) Row(i int) Row { return p.Rows[i] }

// Release recycles the page.
func (p *Page) Release() {}

// arena is operator-owned row storage.
type arena struct{ chunk []Value }

// copyRow copies r into the arena.
func copyRow(a *arena, r Row) Row {
	start := len(a.chunk)
	a.chunk = append(a.chunk, r...)
	return Row(a.chunk[start:len(a.chunk):len(a.chunk)])
}

type hashJoin struct {
	buildRows []Row
	arena     arena
	probe     *Page
	curLeft   Row
	seen      map[int][]Row
	top       []topItem
	partProbe *spill.Reader
}

type topItem struct {
	row Row
	seq int
}

// fillBuildLeaks keeps the build page's rows after releasing it.
func (j *hashJoin) fillBuildLeaks(pg *Page) {
	for i := 0; i < len(pg.Rows); i++ {
		j.buildRows = append(j.buildRows, pg.Row(i)) // want `a row read from an exchange page or a spill reader is stored in j.buildRows, which outlives the page`
	}
	pg.Release()
}

// fillBuild copies each row into the join's own arena first.
func (j *hashJoin) fillBuild(pg *Page) {
	for i := 0; i < len(pg.Rows); i++ {
		j.buildRows = append(j.buildRows, copyRow(&j.arena, pg.Row(i)))
	}
	pg.Release()
}

// fillBuildClone copies through Clone, via a local.
func (j *hashJoin) fillBuildClone(pg *Page) {
	for _, row := range pg.Rows {
		kept := row.Clone()
		j.buildRows = append(j.buildRows, kept)
	}
	pg.Release()
}

// nextProbe keeps the probe row next to the probe page it came from: the
// join holds both, so the row lives as long as it is used.
func (j *hashJoin) nextProbe(pg *Page) {
	j.probe = pg
	l := pg.Row(0)
	j.curLeft = l
}

// advance re-reads the held probe page.
func (j *hashJoin) advance() { j.curLeft = j.probe.Row(1) }

// dedupLeaks keeps rows in a map.
func (j *hashJoin) dedupLeaks(pg *Page) {
	row := pg.Row(0)
	j.seen[0] = append(j.seen[0], row) // want `is stored in j.seen\[0\]`
	pg.Release()
}

// addIfNew is handed to narrow as a predicate, so its row is a page row.
func (j *hashJoin) addIfNew(row Row) bool {
	j.seen[1] = append(j.seen[1], row) // want `is stored in j.seen\[1\]`
	return true
}

// addIfNewCloned is the same predicate keeping a copy.
func (j *hashJoin) addIfNewCloned(row Row) bool {
	j.seen[2] = append(j.seen[2], row.Clone())
	return len(row) > 0
}

func (j *hashJoin) distinct(pg *Page) {
	narrow(pg, j.addIfNew)
	narrow(pg, j.addIfNewCloned)
}

// narrow passes each page row to a predicate.
func narrow(pg *Page, pred func(Row) bool) {
	for _, r := range pg.Rows {
		pred(r)
	}
}

// keep stores its argument, so a page row passed to it is kept.
func (j *hashJoin) keep(r Row) { j.top = append(j.top, topItem{row: r}) }

// keepCopy stores a copy.
func (j *hashJoin) keepCopy(r Row) { j.top = append(j.top, topItem{row: r.Clone()}) }

// keepOver copies the row's values over storage the operator owns.
func (j *hashJoin) keepOver(r Row) { j.top[0].row = append(j.top[0].row[:0], r...) }

func (j *hashJoin) offer(pg *Page) {
	j.keep(pg.Row(0)) // want `is passed to keep, which stores it`
	j.keepCopy(pg.Row(0))
	j.keepOver(pg.Row(0))
	first := pg.Row(0)[0] // a Value is a copy
	j.arena.chunk = append(j.arena.chunk, first)
	pg.Release()
}

// drainLeaks returns rows of pages it released.
func drainLeaks(pages []*Page) []Row {
	var out []Row
	for _, pg := range pages {
		out = append(out, pg.Rows...)
		pg.Release()
	}
	return out // want `is returned past its page's release`
}

// drain returns copies.
func drain(pages []*Page) []Row {
	var out []Row
	var vals arena
	for _, pg := range pages {
		for i := range pg.Rows {
			out = append(out, copyRow(&vals, pg.Row(i)))
		}
		pg.Release()
	}
	return out
}

// cursor hands out rows of the page it holds, valid until its next call.
type cursor struct {
	pg  *Page
	row Row
}

func (c *cursor) batch(next *Page) []Row {
	c.pg = next
	out := make([]Row, len(next.Rows))
	for i := range out {
		out[i] = next.Row(i)
	}
	c.row = out[0]
	return out
}

// result is a materialised result set.
type result struct{ rows []Row }

// materializeLeaks keeps the cursor's current row, which dies with the page
// the cursor holds.
func (c *cursor) materializeLeaks(res *result) {
	res.rows = append(res.rows, c.row) // want `is stored in res.rows, which outlives the page`
}

// materialize keeps a copy.
func (c *cursor) materialize(res *result) {
	res.rows = append(res.rows, c.row.Clone())
}

// loadPartitionLeaks keeps a partition's build rows, each of which the reader
// decodes its next row over.
func (j *hashJoin) loadPartitionLeaks(r *spill.Reader) {
	var rows []Row
	for {
		row, ok, _ := r.Next()
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	j.buildRows = rows // want `a row read from an exchange page or a spill reader is stored in j.buildRows`
}

// loadPartition copies each build row into the join's arena first.
func (j *hashJoin) loadPartition(r *spill.Reader) {
	var rows []Row
	for {
		row, ok, _ := r.Next()
		if !ok {
			break
		}
		rows = append(rows, copyRow(&j.arena, row))
	}
	j.buildRows = rows
}

// nextPartitionProbe keeps the probe row next to the partition reader it
// came from.
func (j *hashJoin) nextPartitionProbe() {
	row, ok, err := j.partProbe.Next()
	if ok && err == nil {
		j.curLeft = row
	}
}

// runMerge keeps each run's head next to the run's reader.
type runMerge struct {
	readers []*spill.Reader
	heads   []Row
}

func (m *runMerge) advance(i int) {
	head, _, _ := m.readers[i].Next()
	m.heads[i] = head
}

var last Row

func remember(pg *Page) {
	last = pg.Row(0) // want `is stored in package variable last`
}
