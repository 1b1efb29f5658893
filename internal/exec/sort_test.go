package exec

// sort_test.go pins the memory-bounded ordering path: external sort output
// identical to the in-memory sort (including the pinned NULL ordering and
// arrival-order tie-breaks), Top-N agreeing with full-sort-then-limit
// byte-for-byte, operator re-Open conformance, spill-file cleanup on every
// termination path, and randomized oracle comparisons for the spilling
// sort/aggregation/join.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"stagedb/internal/plan"
	"stagedb/internal/value"
)

// replaySrc is a rewindable operator source: every Open replays the same
// rows, paged. Pages are unpooled unless pool is set; either way the rows are
// the fixture's own, so a recycled page never overwrites them.
type replaySrc struct {
	rows     []value.Row
	pageRows int
	pos      int
	pool     *PagePool
}

func (s *replaySrc) Open() error { s.pos = 0; return nil }
func (s *replaySrc) Next() (*Page, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	end := s.pos + s.pageRows
	if end > len(s.rows) {
		end = len(s.rows)
	}
	var pg *Page
	if s.pool == nil {
		pg = &Page{Rows: s.rows[s.pos:end]}
	} else {
		pg = s.pool.Get(s.pageRows)
		pg.Rows = append(pg.Rows, s.rows[s.pos:end]...)
	}
	s.pos = end
	return pg, nil
}
func (s *replaySrc) Close() error { return nil }

func newReplay(rows []value.Row) *replaySrc { return &replaySrc{rows: rows, pageRows: 16} }

// colKeys builds SortKeys over column indexes; negative index means DESC on
// the absolute column.
func colKeys(idxs ...int) []plan.SortKey {
	keys := make([]plan.SortKey, len(idxs))
	for i, ix := range idxs {
		desc := false
		if ix < 0 {
			desc, ix = true, -ix-1
		}
		keys[i] = plan.SortKey{Expr: &plan.Column{Idx: ix}, Desc: desc}
	}
	return keys
}

func newSortOp(child Operator, keys []plan.SortKey, workMem int64, sm *SpillMetrics) *sortOp {
	s := &sortOp{node: &plan.Sort{Keys: keys}, child: child, pageRows: 16,
		workMem: workMem, spill: sm}
	for _, k := range keys {
		s.keys = append(s.keys, plan.Compile(k.Expr))
	}
	return s
}

func newTopNOp(child Operator, keys []plan.SortKey, n, offset int, sm *SpillMetrics) *topNOp {
	t := &topNOp{node: &plan.TopN{Keys: keys, N: n, Offset: offset}, child: child,
		pageRows: 16, spill: sm}
	for _, k := range keys {
		t.keys = append(t.keys, plan.Compile(k.Expr))
	}
	return t
}

// drainOpen opens the operator and drains it (without closing).
func drainOpen(t *testing.T, op Operator) []value.Row {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	var out []value.Row
	for {
		pg, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if pg == nil {
			return out
		}
		n := pg.Len()
		for i := 0; i < n; i++ {
			out = append(out, pg.Row(i))
		}
		pg.Release()
	}
}

func rowStrings(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func requireSameOrder(t *testing.T, got, want []value.Row, what string) {
	t.Helper()
	g, w := rowStrings(got), rowStrings(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d = %s, want %s", what, i, g[i], w[i])
		}
	}
}

func requireSameSet(t *testing.T, got, want []value.Row, what string) {
	t.Helper()
	g, w := rowStrings(got), rowStrings(want)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d = %s, want %s", what, i, g[i], w[i])
		}
	}
}

// oracleSort stable-sorts a copy of rows by the keys — the in-memory
// reference every ordering path must match exactly.
func oracleSort(t *testing.T, rows []value.Row, keys []plan.SortKey) []value.Row {
	t.Helper()
	out := append([]value.Row(nil), rows...)
	var sortErr error
	sort.SliceStable(out, func(a, b int) bool {
		for _, k := range keys {
			col := k.Expr.(*plan.Column).Idx
			c, err := value.Compare(out[a][col], out[b][col])
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if c != 0 {
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		t.Fatal(sortErr)
	}
	return out
}

// --- operator re-Open conformance (every operator must replay identically) ---

// TestOperatorReopenConformance drains and re-Opens every operator kind,
// asserting identical output both times. This pins the regression where
// sortOp.Open forgot to reset its emit cursor, so a re-opened sort resumed
// its old position and emitted nothing.
func TestOperatorReopenConformance(t *testing.T) {
	rows := make([]value.Row, 0, 200)
	for i := 0; i < 200; i++ {
		rows = append(rows, value.Row{
			value.NewInt(int64(i % 7)),
			value.NewInt(int64(i)),
			value.NewText(fmt.Sprintf("r%03d", i%13)),
		})
	}
	jn := &plan.Join{L: &plan.SeqScan{}, R: &plan.SeqScan{},
		LeftKeys: []int{0}, RightKey: []int{0}}
	agg := &plan.Aggregate{GroupBy: []plan.Expr{&plan.Column{Idx: 0}},
		Aggs: []plan.AggSpec{{Kind: plan.AggSum, Arg: &plan.Column{Idx: 1}},
			{Kind: plan.AggCountStar}}}
	aop := &aggregateOp{node: agg, child: newReplay(rows), pageRows: 16,
		groupBy: []plan.CompiledExpr{plan.Compile(&plan.Column{Idx: 0})},
		aggArg:  []plan.CompiledExpr{plan.Compile(&plan.Column{Idx: 1}), nil}}
	// DISTINCT is a grouping by every column with no aggregates.
	dop := &aggregateOp{node: &plan.Aggregate{GroupBy: []plan.Expr{&plan.Column{Idx: 0}}}, pageRows: 16,
		child:   &projectOp{child: newReplay(rows), exprs: []plan.CompiledExpr{plan.Compile(&plan.Column{Idx: 0})}},
		groupBy: []plan.CompiledExpr{plan.Compile(&plan.Column{Idx: 0})}}
	ops := map[string]Operator{
		"sort":       newSortOp(newReplay(rows), colKeys(0, -2), 1<<30, nil),
		"sort-spill": newSortOp(newReplay(rows), colKeys(0, -2), 1, nil),
		"topn":       newTopNOp(newReplay(rows), colKeys(2, 1), 9, 2, nil),
		"filter":     &filterOp{child: newReplay(rows), pred: plan.CompilePredicate(&plan.Binary{Op: ">", L: &plan.Column{Idx: 1}, R: &plan.Const{Val: value.NewInt(50)}})},
		"project":    &projectOp{child: newReplay(rows), exprs: []plan.CompiledExpr{plan.Compile(&plan.Column{Idx: 2}), plan.Compile(&plan.Column{Idx: 0})}},
		"limit":      &limitOp{child: newReplay(rows), n: 17, offset: 3},
		"distinct":   dop,
		"aggregate":  aop,
		"hashjoin":   &hashJoin{node: jn, left: newReplay(rows[:50]), right: newReplay(rows[:30]), pageRows: 16},
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			first := drainOpen(t, op)
			if len(first) == 0 {
				t.Fatalf("%s produced no rows; test is vacuous", name)
			}
			second := drainOpen(t, op) // re-Open must fully reset the cursor
			requireSameOrder(t, second, first, name+" after re-Open")
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// --- pinned NULL ordering ---

// TestNullOrderingPinned pins the NULL placement policy on every ordering
// path: NULL sorts lowest, so ASC emits NULLs first and DESC emits them
// last, with multi-key ties broken by arrival order — identically for the
// in-memory sort, the spilled external sort, and the Top-N heap.
func TestNullOrderingPinned(t *testing.T) {
	null := value.NewNull()
	rows := []value.Row{
		{value.NewInt(2), value.NewText("a"), value.NewInt(0)},
		{null, value.NewText("b"), value.NewInt(1)},
		{value.NewInt(1), null, value.NewInt(2)},
		{value.NewInt(2), value.NewText("a"), value.NewInt(3)}, // tie with row 0
		{null, value.NewText("c"), value.NewInt(4)},
		{value.NewInt(1), value.NewText("z"), value.NewInt(5)},
		{null, null, value.NewInt(6)},
	}
	cases := []struct {
		name string
		keys []plan.SortKey
	}{
		{"asc", colKeys(0)},
		{"desc", colKeys(-1)},
		{"multi-asc-desc", colKeys(0, -2)},
		{"multi-desc-asc", colKeys(-1, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := oracleSort(t, rows, tc.keys)
			// ASC: NULL keys first; DESC: NULL keys last.
			if !tc.keys[0].Desc && !want[0][0].IsNull() && tc.name == "asc" {
				t.Fatal("oracle must place NULLs first on ASC")
			}
			if tc.keys[0].Desc && !want[len(want)-1][0].IsNull() {
				t.Fatal("oracle must place NULLs last on DESC")
			}
			inMem := newSortOp(newReplay(rows), tc.keys, 1<<30, nil)
			requireSameOrder(t, drainOpen(t, inMem), want, "in-memory sort")
			inMem.Close()
			spilled := newSortOp(newReplay(rows), tc.keys, 1, nil) // clamps to MinWorkMem; tiny inputs still exercise the run path below
			requireSameOrder(t, drainOpen(t, spilled), want, "external sort")
			spilled.Close()
			for _, k := range []int{1, 3, len(rows)} {
				topn := newTopNOp(newReplay(rows), tc.keys, k, 0, nil)
				requireSameOrder(t, drainOpen(t, topn), want[:k], fmt.Sprintf("top-%d", k))
				topn.Close()
			}
		})
	}
}

// --- external sort vs oracle (forced spilling, multiple generations) ---

// randSortRows builds rows with per-column value classes (numeric with NULLs,
// text with NULLs, plus an arrival stamp) so keys stay comparable.
func randSortRows(rng *rand.Rand, n int) []value.Row {
	rows := make([]value.Row, 0, n)
	for i := 0; i < n; i++ {
		var num, txt value.Value
		switch rng.Intn(4) {
		case 0:
			num = value.NewNull()
		case 1:
			num = value.NewFloat(float64(rng.Intn(40)) + 0.5)
		default:
			num = value.NewInt(int64(rng.Intn(40)))
		}
		if rng.Intn(5) == 0 {
			txt = value.NewNull()
		} else {
			txt = value.NewText(fmt.Sprintf("k%02d-%s", rng.Intn(20), string(rune('a'+rng.Intn(26)))))
		}
		rows = append(rows, value.Row{num, txt, value.NewInt(int64(i))})
	}
	return rows
}

// TestExternalSortMatchesOracle drives the external sort through forced
// spills (multiple run generations included) over randomized mixed-type data
// and requires byte-for-byte agreement with the in-memory stable sort.
func TestExternalSortMatchesOracle(t *testing.T) {
	for _, seed := range testSeeds(t, 1, 7, 42) {
		rng := seededRNG(t, seed)
		rows := randSortRows(rng, 3000+rng.Intn(3000))
		keysets := [][]plan.SortKey{colKeys(0), colKeys(-1), colKeys(1, -1), colKeys(-2, 1)}
		keys := keysets[rng.Intn(len(keysets))]
		want := oracleSort(t, rows, keys)
		sm := &SpillMetrics{}
		op := newSortOp(newReplay(rows), keys, 1, sm) // clamps to MinWorkMem (64 KB)
		got := drainOpen(t, op)
		requireSameOrder(t, got, want, fmt.Sprintf("seed %d external sort", seed))
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		st := sm.Stats()
		if st.SortRuns == 0 || st.SortSpills == 0 {
			t.Fatalf("seed %d: sort did not spill (%+v); data too small for the budget", seed, st)
		}
		if st.FilesLive() != 0 {
			t.Fatalf("seed %d: %d spill files leaked", seed, st.FilesLive())
		}
	}
}

// TestExternalSortCascades forces enough runs to require intermediate merge
// passes (run count beyond the merge fan-in) and still matches the oracle.
func TestExternalSortCascades(t *testing.T) {
	rng := seededRNG(t, 99)
	rows := make([]value.Row, 0, 30000)
	for i := 0; i < 30000; i++ {
		rows = append(rows, value.Row{
			value.NewInt(int64(rng.Intn(500))),
			value.NewText(fmt.Sprintf("pad-%032d", rng.Intn(1000))),
			value.NewInt(int64(i)),
		})
	}
	keys := colKeys(0)
	want := oracleSort(t, rows, keys)
	sm := &SpillMetrics{}
	op := newSortOp(newReplay(rows), keys, 1, sm)
	got := drainOpen(t, op)
	requireSameOrder(t, got, want, "cascaded external sort")
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	st := sm.Stats()
	if st.SortRuns <= mergeFanIn {
		t.Fatalf("want > %d runs to force a cascade, got %d", mergeFanIn, st.SortRuns)
	}
	if st.MergePasses == 0 {
		t.Fatalf("want intermediate merge passes, got %+v", st)
	}
	if st.FilesLive() != 0 {
		t.Fatalf("%d spill files leaked", st.FilesLive())
	}
}

// TestSortAbandonedMidMergeRemovesRuns closes a spilled sort after reading
// only a prefix of its merged output; every run file must be removed.
func TestSortAbandonedMidMergeRemovesRuns(t *testing.T) {
	rng := seededRNG(t, 5)
	rows := randSortRows(rng, 6000)
	sm := &SpillMetrics{}
	op := newSortOp(newReplay(rows), colKeys(0), 1, sm)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	pg, err := op.Next() // first page only: the merge is mid-flight
	if err != nil {
		t.Fatal(err)
	}
	if pg == nil || pg.Len() == 0 {
		t.Fatal("no first page")
	}
	pg.Release()
	if sm.Stats().FilesLive() == 0 {
		t.Fatal("sort should hold live run files mid-merge; test is vacuous")
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if live := sm.Stats().FilesLive(); live != 0 {
		t.Fatalf("%d run files leaked after mid-merge Close", live)
	}
}

// --- spilling aggregation vs oracle ---

// TestSpillingAggMatchesOracle compares the grace-spilling aggregation
// (forced tiny budget, recursion included) against the in-memory aggregation
// over randomized data. SUM/AVG arguments are integers so float accumulation
// order cannot perturb the result.
func TestSpillingAggMatchesOracle(t *testing.T) {
	for _, seed := range testSeeds(t, 3, 11) {
		rng := seededRNG(t, seed)
		n := 20000
		rows := make([]value.Row, 0, n)
		for i := 0; i < n; i++ {
			var key value.Value
			if rng.Intn(20) == 0 {
				key = value.NewNull()
			} else {
				key = value.NewText(fmt.Sprintf("group-%04d-%032d", rng.Intn(3000), rng.Intn(10)))
			}
			rows = append(rows, value.Row{key,
				value.NewInt(int64(rng.Intn(1000))),
				value.NewFloat(rng.Float64() * 100)})
		}
		node := &plan.Aggregate{
			GroupBy: []plan.Expr{&plan.Column{Idx: 0}},
			Aggs: []plan.AggSpec{
				{Kind: plan.AggCountStar},
				{Kind: plan.AggSum, Arg: &plan.Column{Idx: 1}},
				{Kind: plan.AggAvg, Arg: &plan.Column{Idx: 1}},
				{Kind: plan.AggMin, Arg: &plan.Column{Idx: 2}},
				{Kind: plan.AggMax, Arg: &plan.Column{Idx: 2}},
			},
		}
		mk := func(workMem int64, sm *SpillMetrics) *aggregateOp {
			a := &aggregateOp{node: node, child: newReplay(rows), pageRows: 16,
				workMem: workMem, spillM: sm}
			a.groupBy = []plan.CompiledExpr{plan.Compile(&plan.Column{Idx: 0})}
			a.aggArg = []plan.CompiledExpr{nil,
				plan.Compile(&plan.Column{Idx: 1}), plan.Compile(&plan.Column{Idx: 1}),
				plan.Compile(&plan.Column{Idx: 2}), plan.Compile(&plan.Column{Idx: 2})}
			return a
		}
		want := drainOpen(t, mk(1<<30, nil))
		sm := &SpillMetrics{}
		spilled := mk(1, sm)
		got := drainOpen(t, spilled)
		requireSameSet(t, got, want, fmt.Sprintf("seed %d spilling agg", seed))
		if err := spilled.Close(); err != nil {
			t.Fatal(err)
		}
		st := sm.Stats()
		if st.AggSpills == 0 || st.AggPartitions == 0 {
			t.Fatalf("seed %d: aggregation did not spill (%+v)", seed, st)
		}
		if st.FilesLive() != 0 {
			t.Fatalf("seed %d: %d agg partition files leaked", seed, st.FilesLive())
		}
	}
}

// TestSpillingAggSplitDuringStateMerge pins the recursion path where a
// partition exceeds the budget while merging its *partial states*, before
// its raw-row file was opened: the split must re-route those unread raw
// rows, not drop them with the parent partition. Wide group keys make one
// partition's state file alone outweigh WorkMem, forcing exactly that
// split point.
func TestSpillingAggSplitDuringStateMerge(t *testing.T) {
	rng := seededRNG(t, 17)
	const groups, n = 2000, 12000
	rows := make([]value.Row, 0, n)
	for i := 0; i < n; i++ {
		g := rng.Intn(groups)
		rows = append(rows, value.Row{
			value.NewText(fmt.Sprintf("group-%04d-%0400d", g, g)), // ~410B key
			value.NewInt(int64(i % 500)),
		})
	}
	node := &plan.Aggregate{
		GroupBy: []plan.Expr{&plan.Column{Idx: 0}},
		Aggs: []plan.AggSpec{
			{Kind: plan.AggCountStar},
			{Kind: plan.AggSum, Arg: &plan.Column{Idx: 1}},
		},
	}
	mk := func(workMem int64, sm *SpillMetrics) *aggregateOp {
		a := &aggregateOp{node: node, child: newReplay(rows), pageRows: 16,
			workMem: workMem, spillM: sm}
		a.groupBy = []plan.CompiledExpr{plan.Compile(&plan.Column{Idx: 0})}
		a.aggArg = []plan.CompiledExpr{nil, plan.Compile(&plan.Column{Idx: 1})}
		return a
	}
	want := drainOpen(t, mk(1<<30, nil))
	sm := &SpillMetrics{}
	spilled := mk(1, sm)
	got := drainOpen(t, spilled)
	requireSameSet(t, got, want, "agg split during state merge")
	if err := spilled.Close(); err != nil {
		t.Fatal(err)
	}
	st := sm.Stats()
	if st.AggSpills < 2 {
		t.Fatalf("partition recursion did not trigger (%+v); widen the keys", st)
	}
	if st.FilesLive() != 0 {
		t.Fatalf("%d files leaked", st.FilesLive())
	}
}

// TestSpillingAggChargesTextExtremes: MIN/MAX over wide text values must
// charge the retained payloads to the budget — tiny keys with ~5KB string
// maxima cross a 64KB budget long before the group count would.
func TestSpillingAggChargesTextExtremes(t *testing.T) {
	rng := seededRNG(t, 29)
	rows := make([]value.Row, 0, 2000)
	for i := 0; i < 2000; i++ {
		rows = append(rows, value.Row{
			value.NewInt(int64(rng.Intn(50))),
			value.NewText(fmt.Sprintf("%05d-%s", rng.Intn(99999), strings.Repeat("x", 5000))),
		})
	}
	node := &plan.Aggregate{
		GroupBy: []plan.Expr{&plan.Column{Idx: 0}},
		Aggs: []plan.AggSpec{
			{Kind: plan.AggMax, Arg: &plan.Column{Idx: 1}},
			{Kind: plan.AggMin, Arg: &plan.Column{Idx: 1}},
		},
	}
	mk := func(workMem int64, sm *SpillMetrics) *aggregateOp {
		a := &aggregateOp{node: node, child: newReplay(rows), pageRows: 16,
			workMem: workMem, spillM: sm}
		a.groupBy = []plan.CompiledExpr{plan.Compile(&plan.Column{Idx: 0})}
		a.aggArg = []plan.CompiledExpr{plan.Compile(&plan.Column{Idx: 1}), plan.Compile(&plan.Column{Idx: 1})}
		return a
	}
	want := drainOpen(t, mk(1<<30, nil))
	sm := &SpillMetrics{}
	spilled := mk(1, sm)
	got := drainOpen(t, spilled)
	requireSameSet(t, got, want, "text-extreme agg")
	if err := spilled.Close(); err != nil {
		t.Fatal(err)
	}
	st := sm.Stats()
	if st.AggSpills == 0 {
		t.Fatalf("retained text payloads must trip the budget: %+v", st)
	}
	if st.FilesLive() != 0 {
		t.Fatalf("%d files leaked", st.FilesLive())
	}
}

// --- spilling join vs oracle ---

// TestSpillingJoinMatchesOracle compares the grace hash join (forced tiny
// budget) against the in-memory hash join over randomized duplicate-heavy
// keys, NULL keys included.
func TestSpillingJoinMatchesOracle(t *testing.T) {
	for _, seed := range testSeeds(t, 2, 13) {
		rng := seededRNG(t, seed)
		mkRows := func(n, keyRange int) []value.Row {
			rows := make([]value.Row, 0, n)
			for i := 0; i < n; i++ {
				var k value.Value
				if rng.Intn(25) == 0 {
					k = value.NewNull()
				} else {
					k = value.NewInt(int64(rng.Intn(keyRange)))
				}
				rows = append(rows, value.Row{k,
					value.NewText(fmt.Sprintf("v%05d-%032d", i, rng.Intn(10)))})
			}
			return rows
		}
		probe := mkRows(4000, 700)
		build := mkRows(3000, 700)
		node := &plan.Join{L: &plan.SeqScan{}, R: &plan.SeqScan{},
			LeftKeys: []int{0}, RightKey: []int{0}}
		mk := func(workMem int64, sm *SpillMetrics) *hashJoin {
			return &hashJoin{node: node, left: newReplay(probe), right: newReplay(build),
				pageRows: 16, workMem: workMem, spillM: sm}
		}
		want := drainOpen(t, mk(1<<30, nil))
		sm := &SpillMetrics{}
		spilled := mk(1, sm)
		got := drainOpen(t, spilled)
		requireSameSet(t, got, want, fmt.Sprintf("seed %d spilling join", seed))
		if err := spilled.Close(); err != nil {
			t.Fatal(err)
		}
		st := sm.Stats()
		if st.JoinSpills == 0 || st.JoinPartitions == 0 {
			t.Fatalf("seed %d: join did not spill (%+v)", seed, st)
		}
		if st.FilesLive() != 0 {
			t.Fatalf("seed %d: %d join partition files leaked", seed, st.FilesLive())
		}
	}
}

// TestSpillingJoinAbandonedRemovesFiles closes a grace join after one output
// page; all partition files must be removed.
func TestSpillingJoinAbandonedRemovesFiles(t *testing.T) {
	rng := seededRNG(t, 21)
	mkRows := func(n int) []value.Row {
		rows := make([]value.Row, 0, n)
		for i := 0; i < n; i++ {
			rows = append(rows, value.Row{value.NewInt(int64(rng.Intn(200))),
				value.NewText(fmt.Sprintf("pad-%064d", i))})
		}
		return rows
	}
	sm := &SpillMetrics{}
	op := &hashJoin{
		node: &plan.Join{L: &plan.SeqScan{}, R: &plan.SeqScan{},
			LeftKeys: []int{0}, RightKey: []int{0}},
		left: newReplay(mkRows(3000)), right: newReplay(mkRows(3000)),
		pageRows: 16, workMem: 1, spillM: sm,
	}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	pg, err := op.Next()
	if err != nil {
		t.Fatal(err)
	}
	if pg == nil || pg.Len() == 0 {
		t.Fatal("no first page")
	}
	pg.Release()
	if sm.Stats().FilesLive() == 0 {
		t.Fatal("join should hold live partition files mid-probe; test is vacuous")
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if live := sm.Stats().FilesLive(); live != 0 {
		t.Fatalf("%d partition files leaked after early Close", live)
	}
}

// TestSpilledTextOutlivesReaders: a spill reader decodes each row over the
// one it returned last, and each page over the one before, so the values a
// group or a build row keeps must never alias reader storage. A spilled
// MIN/MAX over a text column and a grace join on a text key must match their
// in-memory results when read only after the operator is closed — every
// reader has long moved on by then. The text is wide, so a partition file
// spans several of the reader's pages.
func TestSpilledTextOutlivesReaders(t *testing.T) {
	rng := seededRNG(t, 31)
	rows := make([]value.Row, 0, 3000)
	for i := 0; i < 3000; i++ {
		rows = append(rows, value.Row{
			value.NewInt(int64(rng.Intn(300))),
			value.NewText(fmt.Sprintf("t%05d-%0990d", rng.Intn(100000), i)),
			value.NewText(fmt.Sprintf("key-%04d", rng.Intn(600))),
		})
	}
	runClosed := func(op Operator) []value.Row {
		t.Helper()
		got := drainOpen(t, op)
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	t.Run("agg-min-max-text", func(t *testing.T) {
		node := &plan.Aggregate{
			GroupBy: []plan.Expr{&plan.Column{Idx: 0}},
			Aggs: []plan.AggSpec{
				{Kind: plan.AggMin, Arg: &plan.Column{Idx: 1}},
				{Kind: plan.AggMax, Arg: &plan.Column{Idx: 1}},
				{Kind: plan.AggCountStar},
			},
		}
		mk := func(workMem int64, sm *SpillMetrics) *aggregateOp {
			a := &aggregateOp{node: node, child: newReplay(rows), pageRows: 16,
				workMem: workMem, spillM: sm}
			a.groupBy = []plan.CompiledExpr{plan.Compile(&plan.Column{Idx: 0})}
			a.aggArg = []plan.CompiledExpr{plan.Compile(&plan.Column{Idx: 1}), plan.Compile(&plan.Column{Idx: 1}), nil}
			return a
		}
		want := runClosed(mk(1<<30, nil))
		sm := &SpillMetrics{}
		got := runClosed(mk(1, sm))
		if st := sm.Stats(); st.AggSpills == 0 {
			t.Fatalf("aggregation did not spill: %+v", st)
		}
		requireSameSet(t, got, want, "spilled text MIN/MAX")
	})
	t.Run("grace-join-text-key", func(t *testing.T) {
		node := &plan.Join{L: &plan.SeqScan{}, R: &plan.SeqScan{},
			LeftKeys: []int{2}, RightKey: []int{2}}
		mk := func(workMem int64, sm *SpillMetrics) *hashJoin {
			return &hashJoin{node: node, left: newReplay(rows[:2000]), right: newReplay(rows[1000:]),
				pageRows: 16, workMem: workMem, spillM: sm}
		}
		want := runClosed(mk(1<<30, nil))
		sm := &SpillMetrics{}
		got := runClosed(mk(1, sm))
		if st := sm.Stats(); st.JoinSpills == 0 {
			t.Fatalf("join did not go grace: %+v", st)
		}
		requireSameSet(t, got, want, "grace join on a text key")
	})
}
