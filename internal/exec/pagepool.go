package exec

// pagepool.go implements the pooled exchange-page allocator of the
// vectorized execution path. Exchange pages used to be freshly allocated by
// every producer and dropped for the garbage collector to find; with the
// paper's page-based dataflow that is one allocation (plus a row-header
// array and a row per decoded record) per page per operator per query. The
// pool recycles a page together with its value storage, under an explicit
// ownership protocol:
//
//   - A producer obtains an empty page with pool.Get, carves each output row
//     from the page's own value storage (Page.carve), fills it, appends it to
//     Rows, and emits the page. Emitting transfers ownership to the consumer.
//   - A consumer either forwards the page downstream (transferring ownership
//     again — filter and limit do this, adjusting the selection vector in
//     place) or reads the rows it needs and calls Release, which recycles
//     the page. A page has one owner at a time and is released once.
//
// The lifetime rule for rows:
//
//   - A row carved from a page's value storage lives exactly as long as the
//     page: on Release the storage is recycled and the next page built
//     from it overwrites the values.
//   - A reader may use a row until it releases the page the row came from.
//     After Release neither the page's Rows/Sel slices nor any row read
//     from them may be touched.
//   - Anything that keeps a row longer copies it: value.Row.Clone, or an
//     operator arena (copyRow) that the operator itself owns and charges to
//     its WorkMem budget. The hash-join build side, Top-N, Drain and the
//     client API's materialised results are the retainers; sort copies into
//     its arenas, aggregation (DISTINCT included) copies group keys into its
//     own and spill writers encode on the spot.
//   - A row read back from a spill file follows the same rule with the
//     reader in the page's place: spill.Reader.Next decodes each row over the
//     one it returned last, so the row is valid until the next Next or Close
//     on that reader. The grace join's build side copies into its arena, the
//     run merge's output is copied into the output page; a merge keeps each
//     run's head next to the run's reader until it is emitted.
//
// stagedbvet's rowretain analyzer rejects a page or spill row stored into a
// field, a map or a returned slice without a copy.
//
// Race-detector builds overwrite recycled value storage with a sentinel
// (pagepool_race.go), and a spill reader's previous row with another
// (spill/reader_race.go), so a use-after-release turns into a wrong result
// under go test -race instead of silently reading the next row's values.
// The same builds panic on a second Release of a page already back in the
// pool, which would otherwise hand one page to two producers.
//
// Pages from a nil pool are plain allocations whose Release is a no-op, so
// operator code is identical whether pooling is enabled or not.

import (
	"sync"
	"sync/atomic"

	"stagedb/internal/plan"
	"stagedb/internal/value"
)

// Page is a batch of rows exchanged between operators.
type Page struct {
	// Rows holds every row carried by the page.
	Rows []value.Row
	// Sel, when non-nil, is the page's selection vector: the indexes into
	// Rows that are live, in order. The vectorized filter kernels narrow it
	// in place instead of copying surviving rows. nil means all rows are
	// live.
	Sel []int32

	buf    []value.Row        // backing array owned by the page, reused on recycle
	selBuf []int32            // selection backing, reused on recycle
	vals   arena[value.Value] // value storage rows are carved from, reused on recycle
	pool   *PagePool
	pooled bool // parked in the pool; tracked by race-detector builds only
}

// carve cuts a w-value row off the page's value storage. The row's values
// are whatever the storage last held: the producer must write every slot.
//
//stagedb:hot
func (p *Page) carve(w int) value.Row { return p.vals.carve(w) }

// uncarve gives back the row just carved (w values), for a producer whose
// join residual rejected it after filling it.
func (p *Page) uncarve(w int) { p.vals.chunk = p.vals.chunk[:len(p.vals.chunk)-w] }

// Len returns the number of live rows (honoring the selection vector).
func (p *Page) Len() int {
	if p.Sel != nil {
		return len(p.Sel)
	}
	return len(p.Rows)
}

// Row returns the i-th live row.
func (p *Page) Row(i int) value.Row {
	if p.Sel != nil {
		return p.Rows[p.Sel[i]]
	}
	return p.Rows[i]
}

// arena is chunked storage that small slices are carved from: an exchange
// page's value storage, the storage an operator copies the rows it keeps into
// (then a row lives as long as the operator keeps the arena, whatever happens
// to the page it came from), and the aggregation's group states and slots.
// Chunks start at arenaMinChunk elements and double up to maxPageValues, so a
// small build side costs one small allocation, a large one O(n/chunk). The
// arena holds only the chunk being carved: slices carved from older chunks
// keep those alive for as long as someone references them.
type arena[T any] struct {
	chunk []T
}

// arenaMinChunk is the first chunk's size, in elements.
const arenaMinChunk = 256

// carve cuts n elements off the current chunk, starting a fresh chunk when it
// is full. Full-capacity slicing keeps carved slices from clobbering each
// other through append.
//
//stagedb:hot
func (a *arena[T]) carve(n int) []T {
	if cap(a.chunk)-len(a.chunk) < n {
		a.chunk = make([]T, 0, max(min(2*cap(a.chunk), maxPageValues), arenaMinChunk, n))
	}
	start := len(a.chunk)
	a.chunk = a.chunk[:start+n]
	return a.chunk[start : start+n : start+n]
}

// reset lets go of the arena's storage: slices already carved stay valid for
// as long as someone references them, and the next carve starts a fresh
// small chunk.
func (a *arena[T]) reset() { a.chunk = nil }

// rewind keeps the current chunk for the next carves, zeroed so it pins no
// stale payload, and lets go of the older ones: nothing carved before a
// rewind may be used after it. An operator that rewinds between partitions
// carves each partition from one chunk once that chunk has grown to hold a
// partition's worth.
func (a *arena[T]) rewind() {
	clear(a.chunk)
	a.chunk = a.chunk[:0]
}

// copyRow copies row into an arena — how an operator keeps a page or spill
// row past its page's release or its reader's next row.
func copyRow(a *arena[value.Value], row value.Row) value.Row {
	dst := a.carve(len(row))
	copy(dst, row)
	return dst
}

// Release recycles the page into its pool. Safe on nil and unpooled pages
// (no-op).
func (p *Page) Release() {
	if p == nil || p.pool == nil {
		return
	}
	p.pool.put(p)
}

// slice restricts the page to its live rows in [lo, hi) — the limit/offset
// kernel. The caller must own the page.
func (p *Page) slice(lo, hi int) {
	if p.Sel != nil {
		p.Sel = p.Sel[lo:hi]
		return
	}
	p.Rows = p.Rows[lo:hi]
}

// narrow filters the page's selection in place through pred: rows stay put
// and only the selection vector shrinks. This is the vectorized filter
// kernel — a page flows through a Filter without a single row copy. The
// in-place compaction is safe because the write position never passes the
// read position.
//
//stagedb:hot
func (p *Page) narrow(pred plan.CompiledPredicate) error {
	sel := p.selBuf[:0]
	if p.Sel == nil {
		for i, row := range p.Rows {
			ok, err := pred(row)
			if err != nil {
				return err
			}
			if ok {
				sel = append(sel, int32(i))
			}
		}
	} else {
		for _, i := range p.Sel {
			ok, err := pred(p.Rows[i])
			if err != nil {
				return err
			}
			if ok {
				sel = append(sel, i)
			}
		}
	}
	if sel == nil {
		// No survivor on a page that never had a selection buffer (a fresh
		// pooled page, or an unpooled view): a nil Sel would mean "all rows
		// live", the opposite of what the predicate decided.
		sel = []int32{}
	}
	p.Sel = sel
	if cap(sel) > cap(p.selBuf) {
		p.selBuf = sel
	}
	return nil
}

// PagePool is a sync.Pool-backed allocator of exchange pages with hit/miss
// accounting. One pool is shared by every query of an engine; it is safe for
// concurrent use. Outstanding() underpins the leak tests: after a query ends
// (including LIMIT-abandoned and synchronized-scan queries) every page
// checked out on its behalf must have been returned.
type PagePool struct {
	pool                  sync.Pool
	hits, misses, recycle atomic.Int64
}

// NewPagePool returns an empty pool.
func NewPagePool() *PagePool { return &PagePool{} }

// Get returns an empty page with row capacity at least capRows, owned by the
// caller. A nil pool returns an unpooled page.
func (pp *PagePool) Get(capRows int) *Page {
	if capRows <= 0 {
		capRows = DefaultPageRows
	}
	if pp == nil {
		pg := &Page{buf: make([]value.Row, 0, capRows)}
		pg.Rows = pg.buf
		return pg
	}
	if v := pp.pool.Get(); v != nil {
		pp.hits.Add(1)
		pg := v.(*Page)
		if cap(pg.buf) < capRows {
			pg.buf = make([]value.Row, 0, capRows)
		}
		pg.Rows = pg.buf[:0]
		pg.Sel = nil
		markLive(pg)
		pg.pool = pp
		return pg
	}
	pp.misses.Add(1)
	pg := &Page{buf: make([]value.Row, 0, capRows), pool: pp}
	pg.Rows = pg.buf
	return pg
}

// put recycles a released page, keeping its value storage for the next
// producer unless it grew past maxPageValues.
func (pp *PagePool) put(p *Page) {
	markPooled(p)
	// A producer that appended past the page's capacity grew a fresh backing
	// array; adopt it (it is exclusively ours once released) so the
	// larger capacity is kept. Pages that were re-sliced forward shrink below
	// the original capacity and keep their old backing.
	if cap(p.Rows) > cap(p.buf) {
		p.buf = p.Rows[:0]
	}
	// Drop row headers so a parked pool page does not pin superseded value
	// storage.
	clear(p.buf[:cap(p.buf)])
	p.Rows, p.Sel = nil, nil
	poisonValues(p.vals.chunk)
	if cap(p.vals.chunk) > maxPageValues {
		p.vals.reset()
	} else {
		// Truncated, not rewound: the next producer writes every slot it
		// carves, so zeroing the storage here would be wasted work per page.
		p.vals.chunk = p.vals.chunk[:0]
	}
	pp.recycle.Add(1)
	pp.pool.Put(p)
}

// PagePoolStats is a point-in-time copy of the pool counters.
type PagePoolStats struct {
	// Hits counts Gets served by recycled pages; Misses counts fresh
	// allocations.
	Hits, Misses int64
	// Recycled counts pages returned to the pool by Release.
	Recycled int64
	// Outstanding is pages currently checked out (Hits+Misses-Recycled).
	Outstanding int64
}

// Stats snapshots the pool counters.
func (pp *PagePool) Stats() PagePoolStats {
	if pp == nil {
		return PagePoolStats{}
	}
	h, m, r := pp.hits.Load(), pp.misses.Load(), pp.recycle.Load()
	return PagePoolStats{Hits: h, Misses: m, Recycled: r, Outstanding: h + m - r}
}

// Outstanding reports pages checked out but not yet recycled.
func (pp *PagePool) Outstanding() int64 {
	st := pp.Stats()
	return st.Outstanding
}

// Counters renders the pool counters for stage snapshots (the \stages view).
func (pp *PagePool) Counters() map[string]int64 {
	st := pp.Stats()
	return map[string]int64{
		"pagepool.hits":        st.Hits,
		"pagepool.misses":      st.Misses,
		"pagepool.recycled":    st.Recycled,
		"pagepool.outstanding": st.Outstanding,
	}
}
