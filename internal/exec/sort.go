package exec

// sort.go implements the memory-bounded ordering operators:
//
//   - sortOp is an external merge sort. Input accumulates in memory until the
//     query's WorkMem budget is exceeded, at which point the accumulated
//     batch is sorted and written to a temp-file run (internal/exec/spill);
//     at end of input the runs stream through a k-way merge (cascading in
//     passes of mergeFanIn when there are too many) while a fully in-memory
//     input keeps the old sort-and-slice fast path. Spilled or not, the
//     output order is byte-for-byte identical: rows order by (keys, arrival).
//   - topNOp serves ORDER BY + LIMIT k (the planner's fused TopN node) with a
//     bounded max-heap of k = N+Offset rows: O(k) memory, no materialization,
//     no spill, and — because the heap orders by the same (keys, arrival)
//     total order — output identical to a full sort followed by LIMIT.
//
// NULL ordering is pinned: NULL sorts lowest (value.Compare), so ASC places
// NULLs first and DESC places them last, on every code path.

import (
	"cmp"
	"fmt"
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
const mergeFanIn = 16

// compareKeyRows orders two precomputed key tuples under keys. The NULL
// policy is value.Compare's: NULL sorts lowest, so ASC emits NULLs first and
// DESC emits them last. Every ordering path (in-memory sort, run merge,
// Top-N heap) goes through this one comparator.
func compareKeyRows(a, b value.Row, keys []plan.SortKey) (int, error) {
	for j := range keys {
		c, err := value.Compare(a[j], b[j])
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

	// Accumulation state (resumable: errWouldBlock leaves it in place).
	// Each item is the precomputed key tuple followed by the full row, so
	// runs carry their sort keys and the merge never re-evaluates key
	// expressions. Items are carved from a chunked value arena, so the
	// common in-memory path costs O(n/chunk) allocations, not one per row.
	items     []value.Row
	store     arena[value.Value]
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
	s.closeSpill()
	s.items, s.itemBytes = nil, 0
	s.store.reset()
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

// fill accumulates the child's output, flushing a sorted run whenever the
// batch exceeds the budget.
func (s *sortOp) fill() error {
	kw := len(s.keys)
	for !s.inputDone {
		pg, err := s.child.Next()
		if err != nil {
			return err // errWouldBlock propagates with progress preserved
		}
		if pg == nil {
			s.inputDone = true
			break
		}
		if s.items == nil && s.hint > 0 {
			s.items = make([]value.Row, 0, budgetPresize(s.hint, s.workMem))
		}
		n := pg.Len()
		for i := 0; i < n; i++ {
			row := pg.Row(i)
			item := s.store.carve(kw + len(row))
			for j, k := range s.keys {
				v, err := k(row)
				if err != nil {
					pg.Release()
					return err
				}
				item[j] = v
			}
			copy(item[kw:], row)
			s.items = append(s.items, item)
			s.itemBytes += rowMemSize(item)
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

// sortItems orders the accumulated batch by (keys, arrival): the stable sort
// preserves arrival order among equal keys, which is the tie-break every
// other ordering path (runs, merge, Top-N) reproduces.
func (s *sortOp) sortItems() error {
	var sortErr error
	slices.SortStableFunc(s.items, func(a, b value.Row) int {
		c, err := compareKeyRows(a, b, s.node.Keys)
		if err != nil && sortErr == nil {
			sortErr = err
		}
		return c
	})
	return sortErr
}

// flushRun sorts the accumulated batch and writes it out as one run.
func (s *sortOp) flushRun() error {
	if len(s.items) == 0 {
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
	for _, item := range s.items {
		if err := f.Append(item); err != nil {
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
	// Dropping the arena with the items lets the flushed batch's value
	// storage go to GC; the next batch carves fresh chunks.
	s.items, s.itemBytes = s.items[:0], 0
	s.store.reset()
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
		kw := len(s.keys)
		s.out = make([]value.Row, len(s.items))
		for i, item := range s.items {
			s.out[i] = item[kw:]
		}
		s.items, s.pos = nil, 0
		return nil
	}
	// The still-in-memory tail becomes the last run; runs then hold the whole
	// input in arrival order across run boundaries, so merge ties broken by
	// run index reproduce the stable sort's arrival-order tie-break.
	if err := s.flushRun(); err != nil {
		return err
	}
	s.items = nil
	for len(s.runs) > mergeFanIn {
		if err := s.mergePass(); err != nil {
			return err
		}
	}
	m, err := newRunMerge(s.runs, s.node.Keys)
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
		m, err := newRunMerge(group, s.node.Keys)
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
	kw := len(s.keys)
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
		row := out.carve(len(item) - kw)
		copy(row, item[kw:])
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
	s.items, s.out = nil, nil
	return s.child.Close()
}

// runMerge is the streaming k-way merge over sorted runs. With fan-in
// bounded by mergeFanIn, a linear minimum scan per row beats a heap's
// bookkeeping and sidesteps comparator-error plumbing. Ties pick the lowest
// run index — runs are written in arrival order, so this reproduces the
// stable sort's tie-break exactly.
type runMerge struct {
	keys    []plan.SortKey
	files   []*spill.File
	readers []*spill.Reader
	heads   []value.Row // current item per run, owned by its reader; nil = exhausted
	last    int         // run whose head Next returned last, advanced on the next call; -1 = none
}

func newRunMerge(files []*spill.File, keys []plan.SortKey) (*runMerge, error) {
	m := &runMerge{keys: keys, files: files, last: -1}
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

// Next returns the smallest head across all runs, or ok=false when drained.
// The row is its run reader's storage: the run advances lazily, at the start
// of the next call, so the row stays valid until then.
func (m *runMerge) Next() (value.Row, bool, error) {
	if m.last >= 0 {
		if err := m.advance(m.last); err != nil {
			return nil, false, err
		}
		m.last = -1
	}
	best := -1
	for i, h := range m.heads {
		if h == nil {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		c, err := compareKeyRows(h, m.heads[best], m.keys)
		if err != nil {
			return nil, false, err
		}
		if c < 0 {
			best = i
		}
	}
	if best < 0 {
		return nil, false, nil
	}
	m.last = best
	return m.heads[best], true, nil
}

// Close releases the readers and removes the merged run files.
func (m *runMerge) Close() {
	for _, r := range m.readers {
		r.Close()
	}
	for _, f := range m.files {
		f.Close()
	}
	m.readers, m.files, m.heads = nil, nil, nil
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
	c, err := compareKeyRows(a.key, b.key, t.node.Keys)
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
		c, err := compareKeyRows(t.scratch, t.heap[0].key, t.node.Keys)
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
