package exec

import (
	"unsafe"

	"stagedb/internal/exec/spill"
	"stagedb/internal/plan"
	"stagedb/internal/value"
)

// --- aggregate ---

// aggState is one group's running aggregates. The state, its slots and its
// key's values are carved from the operator's arenas, so a new group costs no
// allocation of its own.
type aggState struct {
	groupKey value.Row
	count    int64     // rows folded into the group
	aggs     []aggSlot // one per aggregate
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
// state, its slots, its key under the rowMemSize model, and its table entry.
func groupMemSize(key value.Row, nAggs int) int64 {
	return int64(unsafe.Sizeof(aggState{})) + int64(nAggs)*int64(unsafe.Sizeof(aggSlot{})) + rowMemSize(key) + hashEntryMem
}

// The two sides of the aggregation's grace pairs.
const (
	aggStates = 0 // partial group states (encodeState rows)
	aggRows   = 1 // raw input rows
)

// aggregateOp is the vectorized hash aggregation kernel, and DISTINCT's
// operator too (a grouping by every column with no aggregates): it consumes
// child pages incrementally (never materializing its input), evaluates
// compiled group-by and argument expressions, reuses one scratch key row
// across all input rows, and hashes keys with the allocation-free inline FNV
// — the steady-state cost of aggregating a row in an existing group is zero
// allocations. A new group's state, slots and key are carved from arenas the
// operator rewinds between partitions, so groups cost allocations per arena
// chunk, not per group. The group table is pre-sized from the planner's
// cardinality estimate.
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

	groups   hashTable   // group-key hash -> chains of order indexes
	order    []*aggState // the groups, in arrival order
	scratch  value.Row   // reused group-key buffer
	encoded  value.Row   // reused partial-state row (encodeState)
	keyCols  []int       // identity column set over the key
	memBytes int64

	// The group table's storage, rewound between partitions.
	states arena[aggState]
	slots  arena[aggSlot]
	keys   arena[value.Value]

	inputDone bool
	loaded    bool
	out       []value.Row
	pos       int

	// Spill state. Once spilled, every subsequent input row routes raw to the
	// aggRows side by group-key hash; the groups held at spill time were
	// written as partial states to the aggStates side.
	spilled  bool
	grace    graceFiles
	emitDone bool
}

func (a *aggregateOp) Open() error {
	a.workMem = ResolveWorkMem(a.workMem) // directly built operators get defaults
	a.grace.close()
	a.groups.reset(budgetPresize(a.groupHint, a.workMem))
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

// key evaluates row's group key into scratch.
func (a *aggregateOp) key(row value.Row) error {
	for i, g := range a.groupBy {
		v, err := g(row)
		if err != nil {
			return err
		}
		a.scratch[i] = v
	}
	return nil
}

// find locates (or creates) the group for the scratch key. A new group's
// state, slots and key are carved from the operator's arenas, the key copied
// out of scratch.
func (a *aggregateOp) find() *aggState {
	h := a.scratch.Hash(a.keyCols)
	for e := a.groups.first(h); e >= 0; e = a.groups.next[e] {
		if st := a.order[e]; rowsEqual(st.groupKey, a.scratch) {
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
	*st = aggState{groupKey: key, aggs: slots}
	a.groups.add(h)
	a.order = append(a.order, st)
	a.memBytes += groupMemSize(key, len(slots))
	return st
}

// rowsEqual compares two group keys value by value, NULL equal to NULL.
func rowsEqual(a, b value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		an, bn := a[i].IsNull(), b[i].IsNull()
		if an != bn {
			return false
		}
		if an {
			continue
		}
		if !value.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// resetGroups empties the group table for the next partition, keeping its
// storage: the table's, the arrival list's and the arenas' current chunks.
func (a *aggregateOp) resetGroups() {
	a.groups.reset(0)
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
		if err := a.key(row); err != nil {
			return err
		}
		if a.spilled {
			if err := a.grace.add(aggRows, a.scratch.Hash(a.keyCols), row); err != nil {
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
// written to the first level's state side, the table is emptied, and every
// later input row is routed raw by key hash.
func (a *aggregateOp) doSpill() error {
	fan := a.topFanOut()
	if err := a.grace.open(a.tmpDir, a.spillM, gracePair{}, fan); err != nil {
		return err
	}
	a.spillM.addAggSpill(2 * fan)
	a.spilled = true
	return a.spillGroups()
}

// topFanOut sizes the first grace level from the planner's group estimate
// and the bytes a group has cost so far: the smallest power of two at or
// above 1.5 × groupHint × bytes per group / WorkMem, clamped to
// [graceFanOut, graceMaxFanOut]. An accurate estimate then gives partitions
// that each fit the budget with room to spare, so none splits and every
// spilled row is written once; an estimate of zero gives graceFanOut.
func (a *aggregateOp) topFanOut() int {
	perGroup := float64(a.memBytes) / float64(max(len(a.order), 1))
	want := 1.5 * float64(a.groupHint) * perGroup / float64(a.workMem)
	fan := graceFanOut
	for fan < graceMaxFanOut && float64(fan) < want {
		fan *= 2
	}
	return fan
}

// spillGroups writes every group's partial state to the state side of the
// level being written, and empties the group table.
func (a *aggregateOp) spillGroups() error {
	for _, st := range a.order {
		if err := a.grace.add(aggStates, st.groupKey.Hash(a.keyCols), a.encodeState(st)); err != nil {
			return err
		}
	}
	a.resetGroups()
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
func (a *aggregateOp) mergeState(row value.Row) {
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
	a.out, a.pos = nil, 0
	return a.grace.finish()
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

// nextPartition aggregates one queued grace partition into output rows —
// its partial states first, then its raw rows — splitting it into deeper
// partitions instead when it exceeds the budget.
func (a *aggregateOp) nextPartition() error {
	w, ok := a.grace.pop()
	if !ok {
		a.emitDone = true
		a.out, a.pos = nil, 0
		return nil
	}
	a.resetGroups()
	states, err := w.side[aggStates].Reader()
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
		a.mergeState(row)
		if a.memBytes > a.workMem && w.depth < graceMaxDepth {
			return a.splitPartition(w, states, nil)
		}
	}
	rows, err := w.side[aggRows].Reader()
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
		if err := a.key(row); err != nil {
			return err
		}
		if err := a.fold(a.find(), row); err != nil {
			return err
		}
		if a.memBytes > a.workMem && w.depth < graceMaxDepth {
			return a.splitPartition(w, states, rows)
		}
	}
	a.grace.done()
	a.materialize()
	return nil
}

// splitPartition recurses: the partition's groups (partial states) and the
// unread remainders of its files are re-hashed one level deeper, and the
// sub-partitions replace it at the head of the queue. A nil rows reader means
// the raw-row file was never opened — it is routed here in full, not dropped
// with the parent partition. On an error the files stay with a.grace, which
// removes them when the operator closes.
func (a *aggregateOp) splitPartition(w gracePair, states, rows *spill.Reader) error {
	if err := a.grace.open(a.tmpDir, a.spillM, w, graceFanOut); err != nil {
		return err
	}
	a.spillM.addAggSpill(2 * graceFanOut)
	if err := a.spillGroups(); err != nil {
		return err
	}
	// Unread partial states route by their embedded key.
	kw := len(a.groupBy)
	for {
		row, ok, err := states.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := a.grace.add(aggStates, value.Row(row[:kw]).Hash(a.keyCols), row); err != nil {
			return err
		}
	}
	if rows == nil {
		r, err := w.side[aggRows].Reader()
		if err != nil {
			return err
		}
		defer r.Close()
		rows = r
	}
	for {
		row, ok, err := rows.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := a.key(row); err != nil {
			return err
		}
		if err := a.grace.add(aggRows, a.scratch.Hash(a.keyCols), row); err != nil {
			return err
		}
	}
	a.grace.done()
	return a.grace.finish()
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

func (a *aggregateOp) Close() error {
	a.grace.close()
	a.groups = hashTable{}
	a.order, a.out = nil, nil
	a.states.reset()
	a.slots.reset()
	a.keys.reset()
	return a.child.Close()
}
