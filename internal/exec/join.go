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

// hashJoin is the join stage's one operator (§4.3). It builds a hash table on
// the right (build) input, then probes with the left input page-at-a-time:
// probe pages stream through the operator and are released as soon as their
// matches are emitted, so the join holds O(build) memory — never O(probe) —
// and a LIMIT above the join stops the probe side early instead of
// materializing it. The build side is drained lazily on first Next so a
// pooled task can suspend mid-drain (errWouldBlock) without losing progress;
// probe-side would-blocks emit any partially filled output page rather than
// stall it.
//
// A join with no equi key (a cross join, or an ON with only a residual) is a
// hash join over zero key columns: every build row lands in one bucket, so
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
// grace: its one bucket cannot be partitioned, so its build side stays
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

	buildRows  []value.Row        // in-memory build accumulation (resumable)
	buildArena arena[value.Value] // owns the build rows' values: build pages and spill rows are recycled under them
	buildBytes int64
	buildDone  bool
	built      bool
	table      map[uint64][]value.Row

	// Streaming probe state, preserved across errWouldBlock suspensions.
	probe   *Page
	probeI  int         // next live-row index within probe
	curLeft value.Row   // probe row whose bucket is being emitted
	bucket  []value.Row // current hash bucket (candidates; keys re-checked)
	bucketI int
	eos     bool

	// Grace state. Once parted, build rows route into buildFiles and the
	// whole probe input routes into probeFiles before any output is emitted;
	// work then holds the partition pairs awaiting their join.
	parted      bool
	buildFiles  []*spill.File
	probeFiles  []*spill.File
	probeRouted bool
	work        []joinWork
	curWork     *joinWork     // partition being joined (files still on disk)
	partProbe   *spill.Reader // probe stream of the current partition

	out *Page // output page under construction
}

// joinWork is one pending grace partition pair.
type joinWork struct {
	build *spill.File
	probe *spill.File
	depth int
}

func (j *hashJoin) Open() error {
	j.workMem = ResolveWorkMem(j.workMem) // directly built operators get defaults
	j.closeSpillFiles()
	j.buildRows, j.buildBytes, j.buildDone = nil, 0, false
	j.buildArena.reset()
	j.built, j.eos = false, false
	j.table = nil
	j.probe, j.probeI = nil, 0
	j.curLeft, j.bucket, j.bucketI = nil, nil, 0
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
				p := partOf(row.Hash(j.node.RightKey), 0)
				if err := j.buildFiles[p].Append(row); err != nil {
					pg.Release()
					return err
				}
				continue
			}
			if j.buildRows == nil && j.buildHint > 0 {
				j.buildRows = make([]value.Row, 0, budgetPresize(j.buildHint, j.workMem))
			}
			j.buildRows = append(j.buildRows, copyRow(&j.buildArena, row))
			j.buildBytes += rowMemSize(row)
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
	j.spillM.addJoinSpill()
	var err error
	if j.buildFiles, err = makeSpillFiles(j.tmpDir, j.spillM, aggFanOut); err != nil {
		return err
	}
	if j.probeFiles, err = makeSpillFiles(j.tmpDir, j.spillM, aggFanOut); err != nil {
		return err
	}
	j.spillM.addJoinParts(2 * aggFanOut)
	for _, row := range j.buildRows {
		p := partOf(row.Hash(j.node.RightKey), 0)
		if err := j.buildFiles[p].Append(row); err != nil {
			return err
		}
	}
	j.buildRows, j.buildBytes = nil, 0
	j.buildArena.reset()
	j.parted = true
	return nil
}

// loadTable hashes build rows into the probe table, pre-sized and
// batch-hashed in one pass.
func (j *hashJoin) loadTable(rows []value.Row) {
	size := len(rows)
	if size == 0 {
		size = budgetPresize(j.buildHint, j.workMem)
	}
	j.table = make(map[uint64][]value.Row, size)
	hashes := value.HashRows(rows, j.node.RightKey, nil)
	for i, row := range rows {
		if keysNull(row, j.node.RightKey) {
			continue
		}
		j.table[hashes[i]] = append(j.table[hashes[i]], row)
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
			rows := j.buildRows
			j.buildRows = nil
			j.loadTable(rows)
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
		if j.bucket != nil {
			if err := j.emitBucket(); err != nil {
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
			if b := j.table[l.Hash(j.node.LeftKeys)]; len(b) > 0 {
				j.curLeft, j.bucket, j.bucketI = l, b, 0
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

// emitBucket emits the current probe row's remaining candidate matches into
// the output page (shared by the streaming and grace paths).
func (j *hashJoin) emitBucket() error {
	for j.bucketI < len(j.bucket) && j.outLen() < j.pageRows {
		r := j.bucket[j.bucketI]
		j.bucketI++
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
	if j.bucketI >= len(j.bucket) {
		j.bucket, j.curLeft = nil, nil
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
			p := partOf(row.Hash(j.node.LeftKeys), 0)
			if err := j.probeFiles[p].Append(row); err != nil {
				pg.Release()
				return err
			}
		}
		pg.Release()
	}
	for i := 0; i < aggFanOut; i++ {
		if err := j.buildFiles[i].Finish(); err != nil {
			return err
		}
		if err := j.probeFiles[i].Finish(); err != nil {
			return err
		}
		j.work = append(j.work, joinWork{build: j.buildFiles[i], probe: j.probeFiles[i], depth: 1})
	}
	j.buildFiles, j.probeFiles = nil, nil
	j.probeRouted = true
	return nil
}

// nextGrace joins the queued partition pairs one at a time, streaming each
// partition's probe file against its in-memory build table.
func (j *hashJoin) nextGrace() (*Page, error) {
	for j.outLen() < j.pageRows {
		if j.bucket != nil {
			if err := j.emitBucket(); err != nil {
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
			if b := j.table[row.Hash(j.node.LeftKeys)]; len(b) > 0 {
				j.curLeft, j.bucket, j.bucketI = row, b, 0
			}
			continue
		}
		if len(j.work) == 0 {
			break
		}
		if err := j.startPartition(); err != nil {
			return nil, err
		}
	}
	return j.emit(), nil
}

// startPartition pops the next partition pair: an over-budget build side
// splits one hash level deeper, otherwise its rows are copied into the build
// arena (a spill reader's row lives only until its next row), load into the
// table, and the probe stream opens.
func (j *hashJoin) startPartition() error {
	w := j.work[0]
	j.work = j.work[1:]
	if w.build.Rows() == 0 || w.probe.Rows() == 0 {
		// An empty side (skewed keys) can never match: skip the partition
		// without decoding the other side's file at all.
		w.build.Close()
		w.probe.Close()
		return nil
	}
	// The split decision uses the decoded footprint, not the file size: a
	// partition of narrow rows decodes to many times its serialized bytes.
	if fileMemSize(w.build) > j.workMem && w.depth < aggMaxDepth {
		return j.splitPartition(w)
	}
	var rows []value.Row
	r, err := w.build.Reader()
	if err != nil {
		w.build.Close()
		w.probe.Close()
		return err
	}
	for {
		row, ok, err := r.Next()
		if err != nil {
			r.Close()
			w.build.Close()
			w.probe.Close()
			return err
		}
		if !ok {
			break
		}
		rows = append(rows, copyRow(&j.buildArena, row))
	}
	r.Close()
	j.loadTable(rows)
	pr, err := w.probe.Reader()
	if err != nil {
		w.build.Close()
		w.probe.Close()
		return err
	}
	j.curWork, j.partProbe = &w, pr
	return nil
}

// finishPartition closes out the partition just joined, removing its files
// and dropping its build rows.
func (j *hashJoin) finishPartition() {
	if j.partProbe != nil {
		j.partProbe.Close()
		j.partProbe = nil
	}
	if j.curWork != nil {
		j.curWork.build.Close()
		j.curWork.probe.Close()
		j.curWork = nil
	}
	j.table = nil
	j.buildArena.reset()
}

// splitPartition re-hashes both sides of an over-budget partition one level
// deeper into aggFanOut sub-pairs, which replace it on the work queue.
// Every error path removes the sub files and the parent pair, so an I/O
// failure mid-split leaves no temp files behind.
func (j *hashJoin) splitPartition(w joinWork) error {
	j.spillM.addJoinSpill()
	sub := make([]joinWork, aggFanOut)
	cleanup := func(err error) error {
		for _, s := range sub {
			if s.build != nil {
				s.build.Close()
			}
			if s.probe != nil {
				s.probe.Close()
			}
		}
		w.build.Close()
		w.probe.Close()
		return err
	}
	builds, err := makeSpillFiles(j.tmpDir, j.spillM, aggFanOut)
	if err != nil {
		return cleanup(err)
	}
	probes, err := makeSpillFiles(j.tmpDir, j.spillM, aggFanOut)
	if err != nil {
		for _, f := range builds {
			f.Close()
		}
		return cleanup(err)
	}
	for i := range sub {
		sub[i] = joinWork{build: builds[i], probe: probes[i], depth: w.depth + 1}
	}
	j.spillM.addJoinParts(2 * aggFanOut)
	route := func(src *spill.File, keys []int, pick func(joinWork) *spill.File) error {
		r, err := src.Reader()
		if err != nil {
			return err
		}
		defer r.Close()
		for {
			row, ok, err := r.Next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			p := partOf(row.Hash(keys), w.depth)
			if err := pick(sub[p]).Append(row); err != nil {
				return err
			}
		}
	}
	if err := route(w.build, j.node.RightKey, func(s joinWork) *spill.File { return s.build }); err != nil {
		return cleanup(err)
	}
	if err := route(w.probe, j.node.LeftKeys, func(s joinWork) *spill.File { return s.probe }); err != nil {
		return cleanup(err)
	}
	w.build.Close()
	w.probe.Close()
	for _, s := range sub {
		if err := s.build.Finish(); err != nil {
			return cleanup(err)
		}
		if err := s.probe.Finish(); err != nil {
			return cleanup(err)
		}
	}
	j.work = append(sub, j.work...)
	return nil
}

// closeSpillFiles removes every partition file the join still owns — the
// teardown path an abandoned or cancelled query takes mid-spill.
func (j *hashJoin) closeSpillFiles() {
	if j.partProbe != nil {
		j.partProbe.Close()
		j.partProbe = nil
	}
	if j.curWork != nil {
		j.curWork.build.Close()
		j.curWork.probe.Close()
		j.curWork = nil
	}
	for _, f := range j.buildFiles {
		if f != nil {
			f.Close()
		}
	}
	for _, f := range j.probeFiles {
		if f != nil {
			f.Close()
		}
	}
	j.buildFiles, j.probeFiles = nil, nil
	for _, w := range j.work {
		w.build.Close()
		w.probe.Close()
	}
	j.work = nil
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
	j.table, j.bucket, j.curLeft, j.buildRows = nil, nil, nil, nil
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
