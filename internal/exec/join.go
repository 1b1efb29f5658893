package exec

import (
	"stagedb/internal/exec/spill"
	"stagedb/internal/plan"
	"stagedb/internal/value"
)

// keysNull reports whether any key column of the row is NULL (NULL never
// joins).
//
//stagedb:hot
func keysNull(row value.Row, keys []int) bool {
	for _, k := range keys {
		if row[k].IsNull() {
			return true
		}
	}
	return false
}

// --- hash join ---

// The two sides of the join's grace pairs.
const (
	joinBuild = 0 // build (right) rows
	joinProbe = 1 // probe (left) rows
)

// hashJoin is the join stage's one operator (§4.3). It builds a hash table on
// the right (build) input, then probes with the left input page-at-a-time:
// probe pages stream through the operator and are released as soon as their
// matches are emitted, so the join holds O(build) memory — never O(probe) —
// and a LIMIT above the join stops the probe side early instead of
// materializing it. The build side is drained lazily on first Next so a
// pooled task can suspend mid-drain (errWouldBlock) without losing progress;
// probe-side would-blocks emit any partially filled output page rather than
// stall it. A probe row's matches come out in build arrival order.
//
// A join with no equi key (a cross join, or an ON with only a residual) is a
// hash join over zero key columns: every build row lands in one chain, so
// each probe row is checked against the whole build side in arrival order,
// residual applied — the rows and order of a nested loop with the probe side
// outer.
//
// When the build side exceeds the query's WorkMem budget, an equi join goes
// grace-style: both inputs partition into temp files by join-key hash, and
// each partition pair joins independently on the probe — loading one
// partition's build rows at a time (recursing with a deeper hash when a
// partition's build side still exceeds the budget), so memory stays
// O(budget) however large the build input is. A key-less join never goes
// grace: its one chain cannot be partitioned, so its build side stays
// resident whatever its size.
type hashJoin struct {
	node      *plan.Join
	left      Operator
	right     Operator
	pageRows  int
	pool      *PagePool
	resid     plan.CompiledPredicate // residual condition over concat rows
	buildHint int

	workMem int64
	tmpDir  string
	spillM  *SpillMetrics

	buildRows  []value.Row        // the build rows (of the partition being joined), in arrival order
	buildArena arena[value.Value] // owns the build rows' values: build pages and spill rows are recycled under them
	buildBytes int64
	buildDone  bool
	built      bool
	table      hashTable // build-key hash -> chains of buildRows indexes

	// Streaming probe state, preserved across errWouldBlock suspensions.
	probe   *Page
	probeI  int       // next live-row index within probe
	curLeft value.Row // probe row whose chain is being emitted
	chain   int32     // next candidate of curLeft's chain (keys re-checked); -1 = none
	eos     bool

	// Grace state. Once parted, build rows route to the build side of grace's
	// first level and the whole probe input to its probe side before any
	// output is emitted; grace then queues the partition pairs awaiting their
	// join.
	parted      bool
	probeRouted bool
	grace       graceFiles
	partProbe   *spill.Reader // probe stream of the current partition

	out *Page // output page under construction
}

func (j *hashJoin) Open() error {
	j.workMem = ResolveWorkMem(j.workMem) // directly built operators get defaults
	j.closeSpillFiles()
	j.buildRows, j.buildBytes, j.buildDone = nil, 0, false
	j.buildArena.reset()
	j.built, j.eos = false, false
	j.probe, j.probeI = nil, 0
	j.curLeft, j.chain = nil, -1
	j.parted, j.probeRouted = false, false
	j.out = nil
	if err := j.left.Open(); err != nil {
		return err
	}
	return j.right.Open()
}

// fillBuild drains the build (right) input resumably, copying rows into the
// join's own arena until the budget is exceeded, then routing rows into
// grace partitions.
func (j *hashJoin) fillBuild() error {
	for !j.buildDone {
		pg, err := j.right.Next()
		if err != nil {
			return err // errWouldBlock propagates with progress preserved
		}
		if pg == nil {
			j.buildDone = true
			break
		}
		n := pg.Len()
		for i := 0; i < n; i++ {
			row := pg.Row(i)
			if keysNull(row, j.node.RightKey) {
				continue // NULL keys never join; don't buffer or spill them
			}
			if j.parted {
				if err := j.grace.add(joinBuild, row.Hash(j.node.RightKey), row); err != nil {
					pg.Release()
					return err
				}
				continue
			}
			if j.buildRows == nil && j.buildHint > 0 {
				j.buildRows = make([]value.Row, 0, budgetPresize(j.buildHint, j.workMem))
			}
			j.buildRows = append(j.buildRows, copyRow(&j.buildArena, row))
			j.buildBytes += rowMemSize(row) + hashEntryMem
		}
		pg.Release()
		if !j.parted && j.buildBytes > j.workMem && len(j.node.RightKey) > 0 {
			if err := j.spillBuild(); err != nil {
				return err
			}
		}
	}
	return nil
}

// spillBuild crosses into grace mode: partition files are created for both
// sides and the accumulated build rows are routed out by key hash.
func (j *hashJoin) spillBuild() error {
	if err := j.grace.open(j.tmpDir, j.spillM, gracePair{}, graceFanOut); err != nil {
		return err
	}
	j.spillM.addJoinSpill(2 * graceFanOut)
	for _, row := range j.buildRows {
		if err := j.grace.add(joinBuild, row.Hash(j.node.RightKey), row); err != nil {
			return err
		}
	}
	j.buildRows, j.buildBytes = nil, 0
	j.buildArena.reset()
	j.parted = true
	return nil
}

// loadTable indexes the build rows by key hash.
func (j *hashJoin) loadTable() {
	j.table.reset(len(j.buildRows))
	for _, row := range j.buildRows {
		j.table.add(row.Hash(j.node.RightKey))
	}
}

// pushOut carves one concatenated output row from the output page's value
// storage; the caller appends it to the page or gives it back.
func (j *hashJoin) pushOut(l, r value.Row) value.Row {
	if j.out == nil {
		j.out = j.pool.Get(j.pageRows)
	}
	row := j.out.carve(len(l) + len(r))
	copy(row, l)
	copy(row[len(l):], r)
	return row
}

func (j *hashJoin) outLen() int {
	if j.out == nil {
		return 0
	}
	return len(j.out.Rows)
}

func (j *hashJoin) emit() *Page {
	pg := j.out
	j.out = nil
	return pg
}

func (j *hashJoin) Next() (*Page, error) {
	if !j.built {
		if err := j.fillBuild(); err != nil {
			return nil, err
		}
		if !j.parted {
			j.loadTable()
		}
		j.built = true
	}
	if j.parted {
		if !j.probeRouted {
			if err := j.routeProbe(); err != nil {
				return nil, err
			}
		}
		return j.nextGrace()
	}
	for !j.eos && j.outLen() < j.pageRows {
		if j.chain >= 0 {
			if err := j.emitChain(); err != nil {
				return nil, err
			}
			continue
		}
		if j.probe != nil && j.probeI < j.probe.Len() {
			l := j.probe.Row(j.probeI)
			j.probeI++
			if keysNull(l, j.node.LeftKeys) {
				continue
			}
			if e := j.table.first(l.Hash(j.node.LeftKeys)); e >= 0 {
				j.curLeft, j.chain = l, e
			}
			continue
		}
		if j.probe != nil {
			j.probe.Release()
			j.probe = nil
		}
		pg, err := j.left.Next()
		if err != nil {
			if err == errWouldBlock && j.outLen() > 0 {
				break
			}
			return nil, err
		}
		if pg == nil {
			j.eos = true
			break
		}
		j.probe, j.probeI = pg, 0
	}
	return j.emit(), nil
}

// emitChain emits the current probe row's remaining candidate matches into
// the output page (shared by the streaming and grace paths).
func (j *hashJoin) emitChain() error {
	for j.chain >= 0 && j.outLen() < j.pageRows {
		r := j.buildRows[j.chain]
		j.chain = j.table.next[j.chain]
		if !keysEqual(j.curLeft, j.node.LeftKeys, r, j.node.RightKey) {
			continue
		}
		combined := j.pushOut(j.curLeft, r)
		if j.resid != nil {
			ok, err := j.resid(combined)
			if err != nil {
				return err
			}
			if !ok {
				// Reject: give the slot back, or a selective residual (about
				// half of a non-equi join's candidates) regrows the page's
				// value storage past one page's worth.
				j.out.uncarve(len(combined))
				continue
			}
		}
		j.out.Rows = append(j.out.Rows, combined)
	}
	if j.chain < 0 {
		j.curLeft = nil
	}
	return nil
}

// routeProbe drains the probe (left) input into the grace partition files
// (resumably); no output is produced until the whole probe side is routed.
func (j *hashJoin) routeProbe() error {
	for {
		pg, err := j.left.Next()
		if err != nil {
			return err
		}
		if pg == nil {
			break
		}
		n := pg.Len()
		for i := 0; i < n; i++ {
			row := pg.Row(i)
			if keysNull(row, j.node.LeftKeys) {
				continue // inner join: NULL probe keys match nothing
			}
			if err := j.grace.add(joinProbe, row.Hash(j.node.LeftKeys), row); err != nil {
				pg.Release()
				return err
			}
		}
		pg.Release()
	}
	if err := j.grace.finish(); err != nil {
		return err
	}
	j.probeRouted = true
	return nil
}

// nextGrace joins the queued partition pairs one at a time, streaming each
// partition's probe file against its in-memory build table.
func (j *hashJoin) nextGrace() (*Page, error) {
	for j.outLen() < j.pageRows {
		if j.chain >= 0 {
			if err := j.emitChain(); err != nil {
				return nil, err
			}
			continue
		}
		if j.partProbe != nil {
			row, ok, err := j.partProbe.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				j.finishPartition()
				continue
			}
			if e := j.table.first(row.Hash(j.node.LeftKeys)); e >= 0 {
				j.curLeft, j.chain = row, e
			}
			continue
		}
		more, err := j.startPartition()
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
	}
	return j.emit(), nil
}

// startPartition pops the next partition pair, false when none is left: an
// over-budget build side splits one hash level deeper, otherwise its rows are
// copied into the build arena (a spill reader's row lives only until its next
// row) and indexed, and the probe stream opens. On an error the pair's files
// stay with j.grace, which removes them when the join closes.
func (j *hashJoin) startPartition() (bool, error) {
	w, ok := j.grace.pop()
	if !ok {
		return false, nil
	}
	build, probe := w.side[joinBuild], w.side[joinProbe]
	if build.Rows() == 0 || probe.Rows() == 0 {
		// An empty side (skewed keys) can never match: skip the partition
		// without decoding the other side's file at all.
		j.grace.done()
		return true, nil
	}
	// The split decision uses the decoded footprint, not the file size: a
	// partition of narrow rows decodes to many times its serialized bytes.
	if fileMemSize(build)+build.Rows()*hashEntryMem > j.workMem && w.depth < graceMaxDepth {
		return true, j.splitPartition(w)
	}
	r, err := build.Reader()
	if err != nil {
		return false, err
	}
	defer r.Close()
	for {
		row, ok, err := r.Next()
		if err != nil {
			return false, err
		}
		if !ok {
			break
		}
		j.buildRows = append(j.buildRows, copyRow(&j.buildArena, row))
	}
	j.loadTable()
	j.partProbe, err = probe.Reader()
	return true, err
}

// finishPartition closes out the partition just joined, removing its files
// and dropping its build rows; their storage is kept for the next partition.
func (j *hashJoin) finishPartition() {
	j.partProbe.Close()
	j.partProbe = nil
	j.grace.done()
	clear(j.buildRows)
	j.buildRows = j.buildRows[:0]
	j.buildArena.rewind()
}

// splitPartition re-hashes both sides of an over-budget partition one level
// deeper; the sub-pairs replace it at the head of the queue. On an error the
// files stay with j.grace, which removes them when the join closes.
func (j *hashJoin) splitPartition(w gracePair) error {
	if err := j.grace.open(j.tmpDir, j.spillM, w, graceFanOut); err != nil {
		return err
	}
	j.spillM.addJoinSpill(2 * graceFanOut)
	if err := j.route(w.side[joinBuild], joinBuild, j.node.RightKey); err != nil {
		return err
	}
	if err := j.route(w.side[joinProbe], joinProbe, j.node.LeftKeys); err != nil {
		return err
	}
	j.grace.done()
	return j.grace.finish()
}

// route re-hashes every row of src, by its keys, into one side of the level
// being written.
func (j *hashJoin) route(src *spill.File, side int, keys []int) error {
	r, err := src.Reader()
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		row, ok, err := r.Next()
		if err != nil || !ok {
			return err
		}
		if err := j.grace.add(side, row.Hash(keys), row); err != nil {
			return err
		}
	}
}

// closeSpillFiles removes every partition file the join still owns — the
// teardown path an abandoned or cancelled query takes mid-spill.
func (j *hashJoin) closeSpillFiles() {
	if j.partProbe != nil {
		j.partProbe.Close()
		j.partProbe = nil
	}
	j.grace.close()
}

//stagedb:hot
func keysEqual(l value.Row, lk []int, r value.Row, rk []int) bool {
	for i := range lk {
		if !value.Equal(l[lk[i]], r[rk[i]]) {
			return false
		}
	}
	return true
}

func (j *hashJoin) Close() error {
	j.closeSpillFiles()
	j.table = hashTable{}
	j.curLeft, j.buildRows, j.chain = nil, nil, -1
	j.probe.Release()
	j.probe = nil
	j.buildArena.reset()
	j.out.Release()
	j.out = nil
	if err := j.left.Close(); err != nil {
		j.right.Close()
		return err
	}
	return j.right.Close()
}
