package exec

import (
	"unsafe"

	"stagedb/internal/exec/spill"
	"stagedb/internal/plan"
	"stagedb/internal/value"
)

// --- aggregate ---

// aggFanOut is the grace-partitioning fan-out of the spilling aggregation
// (and, in join.go, the grace hash join): a spilled operator splits its keys
// into aggFanOut partition files per level.
const aggFanOut = 8

// aggMaxDepth bounds partition recursion. A partition still over budget at
// the bottom aggregates in memory anyway — termination beats a hard failure
// on adversarial key distributions.
const aggMaxDepth = 6

// partOf selects a grace partition for a key hash at a recursion depth, each
// level consuming a fresh slice of the hash's bits (the in-memory group and
// join tables use the low bits, so start above them).
//
//stagedb:hot
func partOf(h uint64, depth int) int {
	return int((h >> (7 + 3*depth)) & (aggFanOut - 1))
}

// aggState is one group's running aggregates. The state, its slots and its
// key's values are carved from the operator's arenas, so a new group costs no
// allocation of its own.
type aggState struct {
	groupKey value.Row
	count    int64     // rows folded into the group
	aggs     []aggSlot // one per aggregate
	next     *aggState // next group in the same hash chain
}

// aggSlot is one aggregate's running state within a group.
type aggSlot struct {
	count    int64 // non-null arguments (rows, for COUNT(*)): COUNT and the AVG denominator
	sum      float64
	sumInt   int64
	sumIsInt bool // every summed argument was an integer: SUM stays exact in sumInt
	min, max value.Value
}

// groupMemSize is a group's in-memory footprint for WorkMem accounting: its
// state, its slots and its key, under the same model as rowMemSize.
func groupMemSize(key value.Row, nAggs int) int64 {
	return int64(unsafe.Sizeof(aggState{})) + int64(nAggs)*int64(unsafe.Sizeof(aggSlot{})) + rowMemSize(key)
}

// aggregateOp is the vectorized hash aggregation kernel: it consumes child
// pages incrementally (never materializing its input), evaluates compiled
// group-by and argument expressions, reuses one scratch key row across all
// input rows, and hashes keys with the allocation-free inline FNV — the
// steady-state cost of aggregating a row in an existing group is zero
// allocations. A new group's state, slots and key are carved from arenas the
// operator rewinds between partitions, so groups cost allocations per arena
// chunk, not per group. The groups table is pre-sized from the
// planner's cardinality estimate.
//
// Memory is bounded by the query's WorkMem budget: when the group table
// outgrows it, the operator spills grace-style — current groups serialize
// their partial state to per-partition files, subsequent input rows are
// routed raw to partition files, and each partition aggregates independently
// at the end (recursing with a deeper hash when a partition itself exceeds
// the budget). Un-spilled aggregations keep group-arrival output order;
// spilled ones emit partition by partition.
type aggregateOp struct {
	node      *plan.Aggregate
	child     Operator
	pageRows  int
	groupHint int

	workMem int64
	tmpDir  string
	spillM  *SpillMetrics

	groupBy []plan.CompiledExpr
	aggArg  []plan.CompiledExpr // nil entries for COUNT(*)

	groups   map[uint64]*aggState // hash chains, by group-key hash
	order    []*aggState          // arrival order for deterministic output
	scratch  value.Row            // reused group-key buffer
	encoded  value.Row            // reused partial-state row (encodeState)
	keyCols  []int                // identity column set over the key
	memBytes int64

	// The group table's storage, rewound between partitions.
	states arena[aggState]
	slots  arena[aggSlot]
	keys   arena[value.Value]

	inputDone bool
	loaded    bool
	out       []value.Row
	pos       int

	// Spill state. Once spilled, every subsequent input row routes raw into
	// rowFiles by group-key hash; the groups held at spill time were written
	// as partial-state rows into stateFiles.
	spilled    bool
	stateFiles []*spill.File
	rowFiles   []*spill.File
	work       []aggWork // partitions awaiting aggregation at emit time
	emitDone   bool
}

// aggWork is one pending grace partition: partial aggregate states to merge,
// raw rows to fold in, and the recursion depth its files were hashed at.
type aggWork struct {
	state *spill.File
	rows  *spill.File
	depth int
}

func (a *aggregateOp) Open() error {
	a.workMem = ResolveWorkMem(a.workMem) // directly built operators get defaults
	a.closeSpillFiles()
	a.groups = make(map[uint64]*aggState, budgetPresize(a.groupHint, a.workMem))
	a.resetGroups()
	a.scratch = make(value.Row, len(a.groupBy))
	a.keyCols = make([]int, len(a.groupBy))
	for i := range a.keyCols {
		a.keyCols[i] = i
	}
	a.inputDone, a.loaded = false, false
	a.out, a.pos = nil, 0
	a.spilled, a.emitDone = false, false
	return a.child.Open()
}

// Next folds child pages into the group table as they arrive (resumably:
// errWouldBlock suspends with the partial group table preserved in fields),
// then emits the grouped output — directly for in-memory aggregations,
// partition by partition for spilled ones.
func (a *aggregateOp) Next() (*Page, error) {
	if !a.loaded {
		for !a.inputDone {
			pg, err := a.child.Next()
			if err != nil {
				return nil, err
			}
			if pg == nil {
				a.inputDone = true
				break
			}
			err = a.consume(pg)
			pg.Release()
			if err != nil {
				return nil, err
			}
		}
		if err := a.finish(); err != nil {
			return nil, err
		}
		a.loaded = true
	}
	for {
		if pg := slicePage(&a.pos, a.out, a.pageRows); pg != nil {
			return pg, nil
		}
		if a.emitDone {
			return nil, nil
		}
		if err := a.nextPartition(); err != nil {
			return nil, err
		}
	}
}

// find locates (or creates) the group for the scratch key. A new group's
// state, slots and key are carved from the operator's arenas, the key copied
// out of scratch.
func (a *aggregateOp) find() *aggState {
	h := a.scratch.Hash(a.keyCols)
	head := a.groups[h]
	for st := head; st != nil; st = st.next {
		if rowsEqual(st.groupKey, a.scratch) {
			return st
		}
	}
	key := value.Row(a.keys.carve(len(a.scratch)))
	copy(key, a.scratch)
	slots := a.slots.carve(len(a.node.Aggs))
	for i := range slots {
		slots[i] = aggSlot{sumIsInt: true}
	}
	st := &a.states.carve(1)[0]
	*st = aggState{groupKey: key, aggs: slots, next: head}
	a.groups[h] = st
	a.order = append(a.order, st)
	a.memBytes += groupMemSize(key, len(slots))
	return st
}

// resetGroups empties the group table for the next partition, keeping its
// storage: the map's buckets, the arrival list and the arenas' current
// chunks.
func (a *aggregateOp) resetGroups() {
	clear(a.groups)
	clear(a.order)
	a.order = a.order[:0]
	a.states.rewind()
	a.slots.rewind()
	a.keys.rewind()
	a.memBytes = 0
}

// consume folds one page of input into the group table, or — once spilled —
// routes its rows into the grace partition files.
func (a *aggregateOp) consume(pg *Page) error {
	n := pg.Len()
	for r := 0; r < n; r++ {
		row := pg.Row(r)
		for i, g := range a.groupBy {
			v, err := g(row)
			if err != nil {
				return err
			}
			a.scratch[i] = v
		}
		if a.spilled {
			p := partOf(a.scratch.Hash(a.keyCols), 0)
			if err := a.rowFiles[p].Append(row); err != nil {
				return err
			}
			continue
		}
		if err := a.fold(a.find(), row); err != nil {
			return err
		}
	}
	// Global aggregates hold one group; only keyed aggregations can exceed
	// the budget meaningfully, and only they can spill.
	if !a.spilled && len(a.node.GroupBy) > 0 && a.memBytes > a.workMem {
		return a.doSpill()
	}
	return nil
}

// fold applies one input row to its group's running aggregates.
func (a *aggregateOp) fold(st *aggState, row value.Row) error {
	st.count++
	for i, spec := range a.node.Aggs {
		s := &st.aggs[i]
		if spec.Kind == plan.AggCountStar {
			s.count++
			continue
		}
		v, err := a.aggArg[i](row)
		if err != nil {
			return err
		}
		if v.IsNull() {
			continue
		}
		s.count++
		switch spec.Kind {
		case plan.AggCount:
			// counted above
		case plan.AggSum, plan.AggAvg:
			if v.Type() == value.Float {
				s.sumIsInt = false
			}
			s.sum += v.Float()
			if v.Type() == value.Int {
				s.sumInt += v.Int()
			}
		case plan.AggMin:
			a.keepMin(s, v)
		case plan.AggMax:
			a.keepMax(s, v)
		}
	}
	return nil
}

// keepMin folds a non-NULL value into a slot's MIN.
func (a *aggregateOp) keepMin(s *aggSlot, v value.Value) {
	if s.min.IsNull() {
		a.setExtreme(&s.min, v)
	} else if c, err := value.Compare(v, s.min); err == nil && c < 0 {
		a.setExtreme(&s.min, v)
	}
}

// keepMax folds a non-NULL value into a slot's MAX.
func (a *aggregateOp) keepMax(s *aggSlot, v value.Value) {
	if s.max.IsNull() {
		a.setExtreme(&s.max, v)
	} else if c, err := value.Compare(v, s.max); err == nil && c > 0 {
		a.setExtreme(&s.max, v)
	}
}

// setExtreme replaces a retained MIN/MAX value, keeping the budget charged
// for its text payload — without this, wide text aggregates would pin
// unbounded string storage the spill threshold never sees.
func (a *aggregateOp) setExtreme(dst *value.Value, v value.Value) {
	a.memBytes += textMem(v) - textMem(*dst)
	*dst = v
}

// doSpill crosses into grace mode: the current groups' partial states are
// serialized into per-partition state files, the table is dropped, and every
// later input row is routed raw by key hash.
func (a *aggregateOp) doSpill() error {
	a.spillM.addAggSpill()
	var err error
	if a.stateFiles, err = makeSpillFiles(a.tmpDir, a.spillM, aggFanOut); err != nil {
		return err
	}
	if a.rowFiles, err = makeSpillFiles(a.tmpDir, a.spillM, aggFanOut); err != nil {
		return err
	}
	a.spillM.addAggParts(2 * aggFanOut)
	for _, st := range a.order {
		p := partOf(st.groupKey.Hash(a.keyCols), 0)
		if err := a.stateFiles[p].Append(a.encodeState(st)); err != nil {
			return err
		}
	}
	a.resetGroups()
	a.spilled = true
	return nil
}

// encodeState flattens a group's partial aggregate state into one row:
// groupKey, count, then (count, sum, sumIsInt, sumInt, min, max) per
// aggregate. mergeState is its inverse. The row is reused by the next call:
// the caller encodes it on the spot (spill.File.Append).
func (a *aggregateOp) encodeState(st *aggState) value.Row {
	out := append(a.encoded[:0], st.groupKey...)
	out = append(out, value.NewInt(st.count))
	for _, s := range st.aggs {
		out = append(out,
			value.NewInt(s.count),
			value.NewFloat(s.sum),
			value.NewBool(s.sumIsInt),
			value.NewInt(s.sumInt),
			s.min,
			s.max,
		)
	}
	a.encoded = out
	return out
}

// mergeState folds one serialized partial state into the group table.
func (a *aggregateOp) mergeState(row value.Row) error {
	kw := len(a.groupBy)
	copy(a.scratch, row[:kw])
	st := a.find()
	st.count += row[kw].Int()
	for i := range st.aggs {
		s, f := &st.aggs[i], row[kw+1+6*i:]
		s.count += f[0].Int()
		s.sum += f[1].Float()
		s.sumIsInt = s.sumIsInt && f[2].Bool()
		s.sumInt += f[3].Int()
		if v := f[4]; !v.IsNull() {
			a.keepMin(s, v)
		}
		if v := f[5]; !v.IsNull() {
			a.keepMax(s, v)
		}
	}
	return nil
}

// finish closes the input phase: in-memory aggregations materialize their
// output; spilled ones seal the partition files and queue them for
// per-partition aggregation during emission.
func (a *aggregateOp) finish() error {
	if !a.spilled {
		a.materialize()
		a.emitDone = true
		return nil
	}
	for i := 0; i < aggFanOut; i++ {
		if err := a.stateFiles[i].Finish(); err != nil {
			return err
		}
		if err := a.rowFiles[i].Finish(); err != nil {
			return err
		}
		a.work = append(a.work, aggWork{state: a.stateFiles[i], rows: a.rowFiles[i], depth: 1})
	}
	a.stateFiles, a.rowFiles = nil, nil
	a.out, a.pos = nil, 0
	return nil
}

// materialize renders the current group table as output rows in group-arrival
// order. The rows are carved from an arena of their own, not the group
// table's: they are emitted while the next partition reuses the table.
func (a *aggregateOp) materialize() {
	// Global aggregate with no input rows still yields one row.
	if len(a.node.GroupBy) == 0 && len(a.order) == 0 && !a.spilled {
		a.find()
	}
	var out arena[value.Value]
	a.out = make([]value.Row, 0, len(a.order))
	for _, st := range a.order {
		kw := len(st.groupKey)
		row := out.carve(kw + len(st.aggs))
		copy(row, st.groupKey)
		for i, spec := range a.node.Aggs {
			row[kw+i] = finishAgg(spec, &st.aggs[i])
		}
		a.out = append(a.out, row)
	}
	a.pos = 0
}

// nextPartition aggregates one queued grace partition into output rows,
// splitting it into deeper partitions instead when it exceeds the budget.
func (a *aggregateOp) nextPartition() error {
	if len(a.work) == 0 {
		a.emitDone = true
		a.out, a.pos = nil, 0
		return nil
	}
	w := a.work[0]
	a.work = a.work[1:]
	a.resetGroups()

	split := func(consumedStates bool, states, rows *spill.Reader) error {
		return a.splitPartition(w, consumedStates, states, rows)
	}

	states, err := w.state.Reader()
	if err != nil {
		return err
	}
	defer states.Close()
	for {
		row, ok, err := states.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := a.mergeState(row); err != nil {
			return err
		}
		if a.memBytes > a.workMem && w.depth < aggMaxDepth {
			// The raw-row file is entirely unread here; splitPartition opens
			// it itself so every row is re-routed, not dropped.
			return split(false, states, nil)
		}
	}
	rows, err := w.rows.Reader()
	if err != nil {
		return err
	}
	defer rows.Close()
	for {
		row, ok, err := rows.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for i, g := range a.groupBy {
			v, err := g(row)
			if err != nil {
				return err
			}
			a.scratch[i] = v
		}
		if err := a.fold(a.find(), row); err != nil {
			return err
		}
		if a.memBytes > a.workMem && w.depth < aggMaxDepth {
			return split(true, states, rows)
		}
	}
	w.state.Close()
	w.rows.Close()
	a.materialize()
	return nil
}

// splitPartition recurses: the partition's groups (partial states) and its
// unread file remainders are re-hashed one level deeper into aggFanOut
// sub-partitions, which replace it on the work queue. A nil rows reader
// means the raw-row file was never opened — it is routed here in full.
// Every error path removes the sub-partition files and the parent's, so an
// I/O failure mid-split leaves no temp files behind.
func (a *aggregateOp) splitPartition(w aggWork, consumedStates bool, states, rows *spill.Reader) (err error) {
	a.spillM.addAggSpill()
	var subState, subRows []*spill.File
	defer func() {
		if err == nil {
			return
		}
		for _, f := range subState {
			f.Close()
		}
		for _, f := range subRows {
			f.Close()
		}
		w.state.Close()
		w.rows.Close()
	}()
	if subState, err = makeSpillFiles(a.tmpDir, a.spillM, aggFanOut); err != nil {
		return err
	}
	if subRows, err = makeSpillFiles(a.tmpDir, a.spillM, aggFanOut); err != nil {
		return err
	}
	a.spillM.addAggParts(2 * aggFanOut)
	// Current groups re-spill as partial states at the deeper level.
	for _, st := range a.order {
		p := partOf(st.groupKey.Hash(a.keyCols), w.depth)
		if err = subState[p].Append(a.encodeState(st)); err != nil {
			return err
		}
	}
	a.resetGroups()
	// Unread partial states route by their embedded key.
	kw := len(a.groupBy)
	if !consumedStates {
		for {
			row, ok, nerr := states.Next()
			if nerr != nil {
				err = nerr
				return err
			}
			if !ok {
				break
			}
			p := partOf(value.Row(row[:kw]).Hash(a.keyCols), w.depth)
			if err = subState[p].Append(row); err != nil {
				return err
			}
		}
	}
	// Raw rows route by their computed key. A split during the state merge
	// never opened the row file — open it now so its rows are redistributed
	// rather than dropped with the parent partition.
	if rows == nil {
		var r *spill.Reader
		if r, err = w.rows.Reader(); err != nil {
			return err
		}
		defer r.Close()
		rows = r
	}
	for {
		row, ok, nerr := rows.Next()
		if nerr != nil {
			err = nerr
			return err
		}
		if !ok {
			break
		}
		for i, g := range a.groupBy {
			var v value.Value
			if v, err = g(row); err != nil {
				return err
			}
			a.scratch[i] = v
		}
		p := partOf(a.scratch.Hash(a.keyCols), w.depth)
		if err = subRows[p].Append(row); err != nil {
			return err
		}
	}
	w.state.Close()
	w.rows.Close()
	sub := make([]aggWork, 0, aggFanOut)
	for i := 0; i < aggFanOut; i++ {
		if err = subState[i].Finish(); err != nil {
			return err
		}
		if err = subRows[i].Finish(); err != nil {
			return err
		}
		sub = append(sub, aggWork{state: subState[i], rows: subRows[i], depth: w.depth + 1})
	}
	a.work = append(sub, a.work...)
	return nil
}

func finishAgg(spec plan.AggSpec, s *aggSlot) value.Value {
	switch spec.Kind {
	case plan.AggCount, plan.AggCountStar:
		return value.NewInt(s.count)
	case plan.AggSum:
		if s.count == 0 {
			return value.NewNull()
		}
		if s.sumIsInt {
			return value.NewInt(s.sumInt)
		}
		return value.NewFloat(s.sum)
	case plan.AggAvg:
		if s.count == 0 {
			return value.NewNull()
		}
		return value.NewFloat(s.sum / float64(s.count))
	case plan.AggMin:
		return s.min
	case plan.AggMax:
		return s.max
	}
	return value.NewNull()
}

// closeSpillFiles removes every partition file the aggregation still owns —
// the teardown path an abandoned or cancelled query takes mid-spill.
func (a *aggregateOp) closeSpillFiles() {
	for _, f := range a.stateFiles {
		if f != nil {
			f.Close()
		}
	}
	for _, f := range a.rowFiles {
		if f != nil {
			f.Close()
		}
	}
	a.stateFiles, a.rowFiles = nil, nil
	for _, w := range a.work {
		w.state.Close()
		w.rows.Close()
	}
	a.work = nil
}

func (a *aggregateOp) Close() error {
	a.closeSpillFiles()
	a.groups, a.order, a.out = nil, nil, nil
	a.states.reset()
	a.slots.reset()
	a.keys.reset()
	return a.child.Close()
}
