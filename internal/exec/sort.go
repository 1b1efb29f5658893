package exec

// sort.go implements the memory-bounded ordering operators:
//
//   - sortOp is an external merge sort. Input accumulates in memory until the
//     query's WorkMem budget is exceeded, at which point the accumulated
//     batch is sorted and written to a temp-file run (internal/exec/spill);
//     at end of input the runs stream through a heap merge (cascading in
//     passes of mergeFanIn when there are too many) while a fully in-memory
//     input keeps the sort-and-slice fast path. Run formation sorts 16-byte
//     (key prefix, index) entries rather than rows, and plain-column keys are
//     read in place rather than copied in front of the row. Spilled or not,
//     the output order is byte-for-byte identical: rows order by (keys,
//     arrival).
//   - topNOp serves ORDER BY + LIMIT k (the planner's fused TopN node) with a
//     bounded max-heap of k = N+Offset rows: O(k) memory, no materialization,
//     no spill, and — because the heap orders by the same (keys, arrival)
//     total order — output identical to a full sort followed by LIMIT.
//
// NULL ordering is pinned: NULL sorts lowest (value.Compare), so ASC places
// NULLs first and DESC places them last, on every code path.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"stagedb/internal/exec/spill"
	"stagedb/internal/plan"
	"stagedb/internal/value"
)

// mergeFanIn bounds how many runs one merge pass reads concurrently (and so
// how many spill-file descriptors a sort holds open at once). Run counts
// beyond it cascade: passes of mergeFanIn-way merges write wider runs until
// one final merge can stream the output.
const mergeFanIn = 32

// compareKeyRows orders two items under keys, reading key j at column at[j].
// The NULL policy is value.Compare's: NULL sorts lowest, so ASC emits NULLs
// first and DESC emits them last. Every ordering path (in-memory sort, run
// merge, Top-N heap) goes through this one comparator.
func compareKeyRows(a, b value.Row, at []int, keys []plan.SortKey) (int, error) {
	for j, col := range at {
		c, err := value.Compare(a[col], b[col])
		if err != nil {
			return 0, fmt.Errorf("exec: sort: %v", err)
		}
		if c != 0 {
			if keys[j].Desc {
				return -c, nil
			}
			return c, nil
		}
	}
	return 0, nil
}

// valueMemSize is one value's fixed in-memory footprint: what a row, an
// arena or a sort item holds per column, whatever the value's type.
const valueMemSize = int64(unsafe.Sizeof(value.Value{}))

// rowMemSize estimates a row's in-memory footprint for WorkMem accounting:
// slice header + value structs + string payloads.
func rowMemSize(r value.Row) int64 {
	size := 24 + valueMemSize*int64(len(r))
	for _, v := range r {
		size += textMem(v)
	}
	return size
}

// textMem is the heap payload a value pins beyond its fixed struct (only
// Text carries one).
func textMem(v value.Value) int64 {
	if v.Type() == value.Text {
		return int64(len(v.Text()))
	}
	return 0
}

// fileMemSize estimates the decoded in-memory footprint of a spill file's
// rows under the rowMemSize model: serialized bytes over-approximate the
// text payloads, and the fixed per-row/per-value costs the codec compresses
// away are restored from the file's row and value counts.
func fileMemSize(f *spill.File) int64 {
	return 24*f.Rows() + valueMemSize*f.Values() + f.Bytes()
}

// --- external merge sort ---

type sortOp struct {
	node     *plan.Sort
	child    Operator
	pageRows int
	pool     *PagePool
	keys     []plan.CompiledExpr
	hint     int

	workMem int64
	tmpDir  string
	spill   *SpillMetrics

	// Item layout (keyLayout): key j sits at column at[j] of an item, and the
	// row starts at column rowAt. With plain-column keys an item is the row
	// itself; otherwise it is the precomputed key tuple followed by the row,
	// so runs carry their sort keys and the merge never re-evaluates key
	// expressions.
	at    []int
	rowAt int

	// Accumulation state (resumable: errWouldBlock leaves it in place).
	// The batch's items sit back to back in vals, width values each (a plan
	// node's rows all have its schema's width); vals and entries, what
	// sortItems orders, are reused batch after batch, so a spilling sort
	// allocates its batch storage once, not once per run.
	vals      []value.Value
	width     int // values per item; 0 until the first row
	entries   []sortEntry
	itemBytes int64
	runs      []*spill.File
	inputDone bool
	loaded    bool

	// In-memory emission.
	out []value.Row
	pos int
	// Spilled emission.
	merge *runMerge
}

func (s *sortOp) Open() error {
	s.workMem = ResolveWorkMem(s.workMem) // directly built operators get defaults
	s.at, s.rowAt = keyLayout(s.node.Keys)
	s.closeSpill()
	s.vals, s.width, s.itemBytes = nil, 0, 0
	s.inputDone, s.loaded = false, false
	s.out, s.pos = nil, 0
	return s.child.Open()
}

// Next drains the child on first call (resumably), spilling sorted runs when
// the accumulated batch exceeds WorkMem, then emits in order — from the
// materialized batch when everything fit, or through a streaming k-way merge
// of the runs when it did not.
func (s *sortOp) Next() (*Page, error) {
	if !s.loaded {
		if err := s.fill(); err != nil {
			return nil, err
		}
		if err := s.finishInput(); err != nil {
			return nil, err
		}
		s.loaded = true
	}
	if s.merge != nil {
		return s.nextMerged()
	}
	return slicePage(&s.pos, s.out, s.pageRows), nil
}

// sortEntry is what run formation sorts: an item's index in the batch and an
// order-preserving prefix of its first key (keyPrefix). It holds no pointer,
// so the sort moves 16 bytes per swap and pays no write barriers, and the
// items never move.
type sortEntry struct {
	pfx uint64
	idx int
}

// sortEntryMem is what one item's entry costs the WorkMem budget.
const sortEntryMem = int64(unsafe.Sizeof(sortEntry{}))

// keyLayout places the sort keys within an item. When every key is a plain
// column, an item is the row itself and key j is read in place at its column;
// any computed key makes an item the precomputed key tuple followed by the
// row.
func keyLayout(keys []plan.SortKey) (at []int, rowAt int) {
	at = make([]int, len(keys))
	for j, k := range keys {
		c, ok := k.Expr.(*plan.Column)
		if !ok {
			return tupleAt(len(keys)), len(keys)
		}
		at[j] = c.Idx
	}
	return at, 0
}

// tupleAt is the layout of a precomputed key tuple: key j at column j.
func tupleAt(n int) []int {
	at := make([]int, n)
	for j := range at {
		at[j] = j
	}
	return at
}

// fill accumulates the child's output, flushing a sorted run whenever the
// batch exceeds the budget.
func (s *sortOp) fill() error {
	for !s.inputDone {
		pg, err := s.child.Next()
		if err != nil {
			return err // errWouldBlock propagates with progress preserved
		}
		if pg == nil {
			s.inputDone = true
			break
		}
		n := pg.Len()
		for i := 0; i < n; i++ {
			row := pg.Row(i)
			if s.width == 0 {
				s.width = s.rowAt + len(row)
				if s.hint > 0 {
					s.vals = make([]value.Value, 0, min(s.hint*s.width, int(s.workMem/valueMemSize)))
				}
			}
			if cap(s.vals)-len(s.vals) < s.width {
				// Double, not append's 1.25×: a large unhinted batch then
				// copies itself about once rather than about four times.
				s.vals = slices.Grow(s.vals, max(cap(s.vals), s.width))
			}
			for _, k := range s.keys[:s.rowAt] {
				v, err := k(row)
				if err != nil {
					pg.Release()
					return err
				}
				s.vals = append(s.vals, v)
			}
			s.vals = append(s.vals, row...)
			s.itemBytes += sortEntryMem + valueMemSize*int64(s.width)
			for _, v := range s.vals[len(s.vals)-s.width:] {
				s.itemBytes += textMem(v)
			}
		}
		pg.Release()
		if s.itemBytes > s.workMem {
			if err := s.flushRun(); err != nil {
				return err
			}
		}
	}
	return nil
}

// item is the batch's item i.
func (s *sortOp) item(i int) value.Row {
	off := i * s.width
	return s.vals[off : off+s.width : off+s.width]
}

// sortItems orders the accumulated batch by (keys, arrival) into s.entries:
// one entry per item, compared by first-key prefix, then by the full keys,
// then by index — so arrival order breaks key ties, the tie-break every
// other ordering path (runs, merge, Top-N) reproduces.
func (s *sortOp) sortItems() error {
	n := 0
	if s.width > 0 {
		n = len(s.vals) / s.width
	}
	if cap(s.entries) < n {
		s.entries = make([]sortEntry, 0, cap(s.vals)/s.width)
	}
	s.entries = s.entries[:0]
	withPrefix := len(s.at) > 0 && hasKeyPrefix(s.vals, s.at[0], s.width)
	for i := range n {
		var pfx uint64
		if withPrefix {
			pfx = keyPrefix(s.vals[i*s.width+s.at[0]], s.node.Keys[0].Desc)
		}
		s.entries = append(s.entries, sortEntry{pfx: pfx, idx: i})
	}
	var sortErr error
	slices.SortFunc(s.entries, func(a, b sortEntry) int {
		if a.pfx != b.pfx {
			return cmp.Compare(a.pfx, b.pfx)
		}
		c, err := compareKeyRows(s.item(a.idx), s.item(b.idx), s.at, s.node.Keys)
		if err != nil && sortErr == nil {
			sortErr = err
		}
		if c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	return sortErr
}

// hasKeyPrefix reports whether a batch's first key — column col of each
// width-value item in vals — gets a prefix: every non-NULL value must be an
// Int, or every one a Float (NaN excluded: it compares equal to everything),
// or every one a Text. A batch mixing Int and Float gets none — value.Compare
// orders those numerically, which no per-type prefix reproduces.
func hasKeyPrefix(vals []value.Value, col, width int) bool {
	kind := value.Null
	for off := col; off < len(vals); off += width {
		v := vals[off]
		switch t := v.Type(); {
		case t == value.Null:
			continue
		case t != value.Int && t != value.Float && t != value.Text:
			return false
		case kind == value.Null:
			kind = t
		case t != kind:
			return false
		}
		if kind == value.Float && math.IsNaN(v.Float()) {
			return false
		}
	}
	return true
}

// keyPrefix maps a first-key value to a uint64 whose order never contradicts
// value.Compare between values of the type hasKeyPrefix admitted: a smaller
// prefix means a smaller value, and values that compare equal get equal
// prefixes (unequal values may share one too; the full comparison decides).
// NULL is 0, the lowest; a DESC key flips every bit.
func keyPrefix(v value.Value, desc bool) uint64 {
	var p uint64
	switch v.Type() {
	case value.Int:
		p = uint64(v.Int()) ^ 1<<63
	case value.Float:
		f := v.Float()
		if f == 0 {
			f = 0 // -0 compares equal to +0
		}
		if b := math.Float64bits(f); b>>63 != 0 {
			p = ^b
		} else {
			p = b | 1<<63
		}
	case value.Text:
		var b [8]byte
		copy(b[:], v.Text())
		p = binary.BigEndian.Uint64(b[:])
	}
	if desc {
		p = ^p
	}
	return p
}

// flushRun sorts the accumulated batch and writes it out as one run.
func (s *sortOp) flushRun() error {
	if len(s.vals) == 0 {
		return nil
	}
	if err := s.sortItems(); err != nil {
		return err
	}
	if len(s.runs) == 0 {
		s.spill.addSortSpill()
	}
	f, err := spill.Create(s.tmpDir, s.spill)
	if err != nil {
		return err
	}
	for _, e := range s.entries {
		if err := f.Append(s.item(e.idx)); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Finish(); err != nil {
		f.Close()
		return err
	}
	s.spill.addSortRun()
	s.runs = append(s.runs, f)
	// The next batch reuses the buffer; clearing it first lets the flushed
	// batch's text payloads go.
	clear(s.vals)
	s.vals, s.itemBytes = s.vals[:0], 0
	return nil
}

// finishInput decides the emission mode once the input is drained: pure
// in-memory sort, or run merge (cascading merge passes first when the run
// count exceeds the fan-in).
func (s *sortOp) finishInput() error {
	if len(s.runs) == 0 {
		if err := s.sortItems(); err != nil {
			return err
		}
		s.out = make([]value.Row, len(s.entries))
		for i, e := range s.entries {
			s.out[i] = s.item(e.idx)[s.rowAt:]
		}
		s.vals, s.entries, s.pos = nil, nil, 0
		return nil
	}
	// The still-in-memory tail becomes the last run; runs then hold the whole
	// input in arrival order across run boundaries, so merge ties broken by
	// run index reproduce the stable sort's arrival-order tie-break.
	if err := s.flushRun(); err != nil {
		return err
	}
	s.vals, s.entries = nil, nil
	for len(s.runs) > mergeFanIn {
		if err := s.mergePass(); err != nil {
			return err
		}
	}
	m, err := newRunMerge(s.runs, s.at, s.node.Keys)
	if err != nil {
		return err
	}
	s.merge = m
	return nil
}

// mergePass merges the runs in groups of mergeFanIn, replacing them with the
// (fewer, wider) outputs. Group order is preserved, so arrival-order
// tie-breaks survive the cascade. On error, s.runs is rewritten to the
// still-live files (finished outputs plus unmerged groups) so Close removes
// them all.
func (s *sortOp) mergePass() (err error) {
	s.spill.addMergePass()
	var next []*spill.File
	defer func() {
		if err != nil {
			// Keep everything still on disk reachable from s.runs: merge
			// outputs already produced, plus any groups not yet consumed
			// (Close on already-removed sources is idempotent).
			s.runs = append(next, s.runs...)
		}
	}()
	for lo := 0; lo < len(s.runs); lo += mergeFanIn {
		hi := lo + mergeFanIn
		if hi > len(s.runs) {
			hi = len(s.runs)
		}
		group := s.runs[lo:hi]
		if len(group) == 1 {
			next = append(next, group[0])
			continue
		}
		m, err := newRunMerge(group, s.at, s.node.Keys)
		if err != nil {
			return err
		}
		out, err := spill.Create(s.tmpDir, s.spill)
		if err != nil {
			m.Close()
			return err
		}
		for {
			item, ok, err := m.Next()
			if err == nil && ok {
				err = out.Append(item)
			}
			if err != nil {
				m.Close()
				out.Close()
				return err
			}
			if !ok {
				break
			}
		}
		m.Close() // closes and removes the merged source runs
		if err := out.Finish(); err != nil {
			out.Close()
			return err
		}
		s.spill.addSortRun()
		next = append(next, out)
	}
	// Runs consumed by merges were removed by their merge's Close; the ones
	// carried over unchanged stay live in next.
	s.runs = next
	return nil
}

// nextMerged emits one page of merged output. A merged row is its run
// reader's storage until the merge's next call, so each is copied into the
// output page's own storage.
func (s *sortOp) nextMerged() (*Page, error) {
	var out *Page
	for out == nil || len(out.Rows) < s.pageRows {
		item, ok, err := s.merge.Next()
		if err != nil {
			out.Release()
			return nil, err
		}
		if !ok {
			break
		}
		if out == nil {
			out = s.pool.Get(s.pageRows)
		}
		row := out.carve(len(item) - s.rowAt)
		copy(row, item[s.rowAt:])
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// closeSpill releases every run file and the in-flight merge.
func (s *sortOp) closeSpill() {
	if s.merge != nil {
		s.merge.Close()
		s.merge = nil
	}
	for _, f := range s.runs {
		f.Close()
	}
	s.runs = nil
}

func (s *sortOp) Close() error {
	s.closeSpill()
	s.vals, s.entries, s.out = nil, nil, nil
	return s.child.Close()
}

// runMerge is the streaming k-way merge over sorted runs: a binary min-heap
// of run indices ordered by (head, run index). Runs are written in arrival
// order, so the run-index tie-break reproduces the stable sort's exactly.
type runMerge struct {
	keys    []plan.SortKey
	at      []int
	files   []*spill.File
	readers []*spill.Reader
	heads   []value.Row // current item per run, owned by its reader; nil = exhausted
	heap    []int       // the runs with a head, smallest (head, run) first
	popped  bool        // heap[0]'s head was returned last: advanced on the next call
	err     error       // the first comparator error
}

func newRunMerge(files []*spill.File, at []int, keys []plan.SortKey) (*runMerge, error) {
	m := &runMerge{keys: keys, at: at, files: files}
	for i, f := range files {
		r, err := f.Reader()
		if err != nil {
			m.Close()
			return nil, err
		}
		m.readers = append(m.readers, r)
		m.heads = append(m.heads, nil)
		if err := m.advance(i); err != nil {
			m.Close()
			return nil, err
		}
		if m.heads[i] != nil {
			m.heap = append(m.heap, i)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	if m.err != nil {
		m.Close()
		return nil, m.err
	}
	return m, nil
}

// advance moves run i's head to its reader's next row (nil at end of run).
func (m *runMerge) advance(i int) error {
	head, ok, err := m.readers[i].Next()
	if err != nil {
		return err
	}
	if !ok {
		head = nil
	}
	m.heads[i] = head
	return nil
}

// less orders runs a and b by (head, run index).
func (m *runMerge) less(a, b int) bool {
	c, err := compareKeyRows(m.heads[a], m.heads[b], m.at, m.keys)
	if err != nil && m.err == nil {
		m.err = err
	}
	return c < 0 || c == 0 && a < b
}

// down restores the heap below position i.
func (m *runMerge) down(i int) {
	h := m.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && m.less(h[r], h[c]) {
			c = r
		}
		if !m.less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Next returns the smallest head across all runs, or ok=false when drained.
// The row is its run reader's storage: the run advances lazily, at the start
// of the next call, so the row stays valid until then.
func (m *runMerge) Next() (value.Row, bool, error) {
	if m.popped {
		m.popped = false
		top := m.heap[0]
		if err := m.advance(top); err != nil {
			return nil, false, err
		}
		if m.heads[top] == nil {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		m.down(0)
		if m.err != nil {
			return nil, false, m.err
		}
	}
	if len(m.heap) == 0 {
		return nil, false, nil
	}
	m.popped = true
	return m.heads[m.heap[0]], true, nil
}

// Close releases the readers and removes the merged run files.
func (m *runMerge) Close() {
	for _, r := range m.readers {
		r.Close()
	}
	for _, f := range m.files {
		f.Close()
	}
	m.readers, m.files, m.heads, m.heap = nil, nil, nil, nil
}

// --- Top-N ---

// topItem is one heap entry: the precomputed key tuple, the row, and the
// arrival sequence that breaks key ties exactly like the stable full sort.
type topItem struct {
	key value.Row
	row value.Row
	seq int64
}

// topNOp keeps the k = N+Offset smallest rows (under the sort order) in a
// bounded max-heap while streaming its input, then emits them in order after
// dropping the Offset prefix. Memory is O(k) regardless of input size; the
// external sort's spill machinery is never engaged.
type topNOp struct {
	node     *plan.TopN
	child    Operator
	pageRows int
	keys     []plan.CompiledExpr
	at       []int // key tuple layout (tupleAt)
	spill    *SpillMetrics

	k         int
	heap      []topItem // max-heap by (keys, seq): heap[0] is the current cutoff
	scratch   value.Row // reused key buffer: rows that miss the cutoff cost no allocation
	seq       int64
	inputDone bool
	loaded    bool
	out       []value.Row
	pos       int
}

func (t *topNOp) Open() error {
	t.k = t.node.N + t.node.Offset
	t.heap = t.heap[:0]
	t.scratch = make(value.Row, len(t.keys))
	t.at = tupleAt(len(t.keys))
	t.seq = 0
	t.inputDone, t.loaded = false, false
	t.out, t.pos = nil, 0
	t.spill.addTopN()
	return t.child.Open()
}

// itemCompare orders heap entries by (keys, arrival sequence) — the same
// total order the stable sort realizes, so Top-N output is byte-for-byte the
// full sort's first k rows.
func (t *topNOp) itemCompare(a, b topItem) (int, error) {
	c, err := compareKeyRows(a.key, b.key, t.at, t.node.Keys)
	if err != nil || c != 0 {
		return c, err
	}
	return cmp.Compare(a.seq, b.seq), nil
}

func (t *topNOp) Next() (*Page, error) {
	if t.k <= 0 {
		return nil, nil // LIMIT 0: nothing to produce, skip the input entirely
	}
	if !t.loaded {
		if err := t.fill(); err != nil {
			return nil, err
		}
		if err := t.finish(); err != nil {
			return nil, err
		}
		t.loaded = true
	}
	return slicePage(&t.pos, t.out, t.pageRows), nil
}

// fill streams the input through the bounded heap (resumably).
func (t *topNOp) fill() error {
	for !t.inputDone {
		pg, err := t.child.Next()
		if err != nil {
			return err
		}
		if pg == nil {
			t.inputDone = true
			break
		}
		n := pg.Len()
		for i := 0; i < n; i++ {
			if err := t.offer(pg.Row(i)); err != nil {
				pg.Release()
				return err
			}
		}
		pg.Release()
	}
	return nil
}

// offer admits a row if it beats the current cutoff (or the heap is not yet
// full), evicting the largest entry to stay at k. Keys evaluate into the
// reused scratch buffer, and keys and row are copied only on admission (the
// row dies with its page) — into fresh storage while the heap fills, over
// the evicted entry's afterwards — so a row that misses the cutoff, the
// overwhelming majority on large inputs, costs nothing, and the whole
// operator allocates O(k).
func (t *topNOp) offer(row value.Row) error {
	for j, k := range t.keys {
		v, err := k(row)
		if err != nil {
			return err
		}
		t.scratch[j] = v
	}
	seq := t.seq
	t.seq++
	if len(t.heap) >= t.k {
		// Arrival sequence exceeds everything in the heap, so a key tie with
		// the cutoff loses too: only a strictly smaller key displaces it.
		c, err := compareKeyRows(t.scratch, t.heap[0].key, t.at, t.node.Keys)
		if err != nil {
			return err
		}
		if c >= 0 {
			return nil
		}
		// The evicted entry's key and row are the operator's own copies:
		// overwrite them in place, so a displacement allocates nothing.
		top := &t.heap[0]
		top.key = append(top.key[:0], t.scratch...)
		top.row = append(top.row[:0], row...)
		top.seq = seq
		return t.siftDown(0)
	}
	t.heap = append(t.heap, topItem{key: t.scratch.Clone(), row: row.Clone(), seq: seq})
	return t.siftUp(len(t.heap) - 1)
}

func (t *topNOp) siftUp(i int) error {
	for i > 0 {
		parent := (i - 1) / 2
		c, err := t.itemCompare(t.heap[parent], t.heap[i])
		if err != nil {
			return err
		}
		if c >= 0 {
			return nil // max-heap property holds: parent is not below child
		}
		t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
		i = parent
	}
	return nil
}

func (t *topNOp) siftDown(i int) error {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n {
			c, err := t.itemCompare(t.heap[largest], t.heap[l])
			if err != nil {
				return err
			}
			if c < 0 {
				largest = l
			}
		}
		if r < n {
			c, err := t.itemCompare(t.heap[largest], t.heap[r])
			if err != nil {
				return err
			}
			if c < 0 {
				largest = r
			}
		}
		if largest == i {
			return nil
		}
		t.heap[i], t.heap[largest] = t.heap[largest], t.heap[i]
		i = largest
	}
}

// finish orders the surviving k rows and drops the Offset prefix.
func (t *topNOp) finish() error {
	var sortErr error
	slices.SortFunc(t.heap, func(a, b topItem) int {
		c, err := t.itemCompare(a, b)
		if err != nil && sortErr == nil {
			sortErr = err
		}
		return c
	})
	if sortErr != nil {
		return sortErr
	}
	start := t.node.Offset
	if start > len(t.heap) {
		start = len(t.heap)
	}
	t.out = make([]value.Row, 0, len(t.heap)-start)
	for _, item := range t.heap[start:] {
		t.out = append(t.out, item.row)
	}
	t.heap, t.pos = nil, 0
	return nil
}

func (t *topNOp) Close() error {
	t.heap, t.out = nil, nil
	return t.child.Close()
}
