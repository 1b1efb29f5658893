package exec

import (
	"slices"
	"testing"

	"stagedb/internal/catalog"
	"stagedb/internal/plan"
	"stagedb/internal/value"
)

// chainOf walks h's chain.
func chainOf(tab *hashTable, h uint64) []int32 {
	var out []int32
	for e := tab.first(h); e >= 0; e = tab.next[e] {
		out = append(out, e)
	}
	return out
}

// TestHashTableChains: entries are numbered in insertion order, a chain
// yields its entries in that order however other hashes interleave with it,
// keys that collide on one hash share a chain the caller tells apart, and
// reset empties the table while keeping its storage.
func TestHashTableChains(t *testing.T) {
	// Entries are keys; "a", "b" and "c" collide on hash 7.
	keys := []string{"a", "x", "b", "a", "y", "z", "c", "a"}
	hashOf := map[string]uint64{"a": 7, "b": 7, "c": 7, "x": 3, "y": 3, "z": 9}
	var tab hashTable
	fill := func() {
		tab.reset(len(keys))
		for i, k := range keys {
			if e := tab.add(hashOf[k]); e != int32(i) {
				t.Fatalf("entry %d numbered %d", i, e)
			}
		}
	}
	fill()
	for h, want := range map[uint64][]int32{7: {0, 2, 3, 6, 7}, 3: {1, 4}, 9: {5}, 8: nil} {
		if got := chainOf(&tab, h); !slices.Equal(got, want) {
			t.Fatalf("chain of %d = %v, want %v", h, got, want)
		}
	}
	var as []int32
	for _, e := range chainOf(&tab, hashOf["a"]) {
		if keys[e] == "a" {
			as = append(as, e)
		}
	}
	if want := []int32{0, 3, 7}; !slices.Equal(as, want) {
		t.Fatalf("entries of key a = %v, want %v", as, want)
	}

	tab.reset(0)
	if len(tab.next) != 0 || tab.first(7) != -1 || tab.first(3) != -1 {
		t.Fatalf("reset left entries: next %v, chain of 7 from %d", tab.next, tab.first(7))
	}
	if cap(tab.next) < len(keys) {
		t.Fatalf("reset dropped the next array (cap %d)", cap(tab.next))
	}
	if allocs := testing.AllocsPerRun(20, fill); allocs != 0 {
		t.Fatalf("refilling a reset table allocates %.1f objects, want 0", allocs)
	}
}

// TestGraceLevelCountsOpenedFiles: a level adds the partition files it
// opened to the partition counters — 64 for the aggregation's 32-way top
// level, 16 for an 8-way join level.
func TestGraceLevelCountsOpenedFiles(t *testing.T) {
	const groups = 50_000
	rows := make([]value.Row, groups)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 7))}
	}
	node := &plan.Aggregate{GroupBy: []plan.Expr{&plan.Column{Idx: 0}},
		Aggs: []plan.AggSpec{{Kind: plan.AggCountStar}, {Kind: plan.AggSum, Arg: &plan.Column{Idx: 1}}}}
	sm := &SpillMetrics{}
	a := &aggregateOp{node: node, child: newReplay(rows), pageRows: 64,
		groupHint: groups, workMem: 1 << 20, spillM: sm}
	a.groupBy = []plan.CompiledExpr{plan.Compile(&plan.Column{Idx: 0})}
	a.aggArg = []plan.CompiledExpr{nil, plan.Compile(&plan.Column{Idx: 1})}
	if got := drainOpen(t, a); len(got) != groups {
		t.Fatalf("%d groups, want %d", len(got), groups)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if st := sm.Stats(); st.AggSpills != 1 || st.AggPartitions != 2*graceMaxFanOut || st.FilesCreated != 2*graceMaxFanOut || st.FilesLive() != 0 {
		t.Fatalf("want one 32-way level (64 files): %+v", st)
	}

	jsm := &SpillMetrics{}
	jn := &plan.Join{L: &plan.SeqScan{}, R: &plan.SeqScan{}, LeftKeys: []int{0}, RightKey: []int{0}}
	j := &hashJoin{node: jn, left: newReplay(rows[:2000]), right: newReplay(rows[:2000]),
		pageRows: 64, workMem: MinWorkMem, spillM: jsm}
	if got := drainOpen(t, j); len(got) != 2000 {
		t.Fatalf("join: %d rows, want 2000", len(got))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if st := jsm.Stats(); st.JoinSpills != 1 || st.JoinPartitions != 2*graceFanOut || st.FilesLive() != 0 {
		t.Fatalf("want one 8-way join level (16 files): %+v", st)
	}
}

// TestTopFanOutFromEstimate: the aggregation's top level is the smallest
// power of two at or above 1.5 × estimated groups × bytes per group /
// WorkMem, within [graceFanOut, graceMaxFanOut].
func TestTopFanOutFromEstimate(t *testing.T) {
	for _, tc := range []struct {
		hint int
		want int
	}{
		{0, 8}, {1000, 8}, {20_000, 16}, {40_000, 32}, {50_000, 32}, {1 << 20, 32},
	} {
		// 2,000 groups at 300 bytes each.
		a := &aggregateOp{groupHint: tc.hint, workMem: 1 << 20, memBytes: 600_000, order: make([]*aggState, 2000)}
		if got := a.topFanOut(); got != tc.want {
			t.Fatalf("hint %d: fan-out %d, want %d", tc.hint, got, tc.want)
		}
	}
}

// TestGraceFanOutFromGroupEstimate runs a 50,000-group GROUP BY at 1 MB
// WorkMem through the planner. ANALYZEd, the estimate is the key's distinct
// count, the top level opens 32-way and no partition splits; without
// column statistics the estimate falls back to a tenth of the input, the
// top level opens 8-way and each of its partitions splits once. Both answer
// exactly what the in-memory aggregation does.
func TestGraceFanOutFromGroupEstimate(t *testing.T) {
	const n, groups = 100_000, 50_000
	db := newTestDB()
	db.createTable(t, "CREATE TABLE f (id INT PRIMARY KEY, k INT, v INT)")
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i * 7919 % groups)), value.NewInt(int64(i % 1000))}
	}
	db.insert(t, "f", rows...)
	const q = "SELECT k, COUNT(*), SUM(v) FROM f GROUP BY k"
	run := func(workMem int64, sm *SpillMetrics) []value.Row {
		t.Helper()
		got, err := runPull(db.plan(t, q, plan.Options{}), db, BuildConfig{WorkMem: workMem, Spill: sm})
		if err != nil {
			t.Fatal(err)
		}
		if st := sm.Stats(); st.FilesLive() != 0 {
			t.Fatalf("%d files left behind", st.FilesLive())
		}
		return got
	}
	want := run(1<<30, nil)
	if len(want) != groups {
		t.Fatalf("%d groups, want %d", len(want), groups)
	}

	sm := &SpillMetrics{}
	requireSameSet(t, run(1<<20, sm), want, "analyzed")
	if st := sm.Stats(); st.AggSpills != 1 || st.AggPartitions != 2*graceMaxFanOut {
		t.Fatalf("analyzed: want one 32-way level and no split: %+v", st)
	}

	db.cat.UpdateStats("f", catalog.TableStats{RowCount: n})
	sm = &SpillMetrics{}
	requireSameSet(t, run(1<<20, sm), want, "not analyzed")
	// Each top partition splits once: a split routes by fresh hash bits, so
	// its sub-partitions fit.
	if st := sm.Stats(); st.AggSpills < 2 || st.AggSpills > 1+graceFanOut || st.AggPartitions != 2*graceFanOut*st.AggSpills {
		t.Fatalf("not analyzed: want an 8-way level whose partitions split once: %+v", st)
	}
}
