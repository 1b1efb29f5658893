package exec

// bench_sort_test.go measures the memory-bounded stateful operators for
// BENCH_sort.json (bench.sh): in-memory vs spilling external sort, Top-N vs
// a full sort + limit, and the spilling aggregation/join vs their in-memory
// forms. BenchmarkTopN/allocs is the bench_gate.sh regression target: Top-N
// must stay O(k) allocations however large its input.

import (
	"fmt"
	"testing"

	"stagedb/internal/plan"
	"stagedb/internal/value"
)

// benchReplay pages the fixture rows coarsely from pool so source pages do not
// drown out the operator under measurement.
func benchReplay(rows []value.Row, pool *PagePool) *replaySrc {
	return &replaySrc{rows: rows, pageRows: 512, pool: pool}
}

func benchRows(n int) []value.Row {
	rows := make([]value.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, value.Row{
			value.NewInt(int64((i * 2654435761) % 1_000_003)),
			value.NewText(fmt.Sprintf("payload-%06d", i%1000)),
			value.NewInt(int64(i)),
		})
	}
	return rows
}

func drainBench(b *testing.B, op Operator) int {
	b.Helper()
	if err := op.Open(); err != nil {
		b.Fatal(err)
	}
	n := 0
	for {
		pg, err := op.Next()
		if err != nil {
			b.Fatal(err)
		}
		if pg == nil {
			break
		}
		n += pg.Len()
		pg.Release()
	}
	if err := op.Close(); err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkExtSort compares the in-memory fast path, the spilling external
// sort over the same input, and a full sort feeding a LIMIT (the shape Top-N
// replaces). Source and output pages come from one page pool, as in the
// engine, so allocs/op counts what the sort itself allocates.
func BenchmarkExtSort(b *testing.B) {
	const n = 50_000
	rows := benchRows(n)
	keys := colKeys(0)
	pp := NewPagePool()
	mk := func(workMem int64, sm *SpillMetrics) *sortOp {
		s := newSortOp(benchReplay(rows, pp), keys, workMem, sm)
		s.pool = pp
		return s
	}
	b.Run("inmem", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := drainBench(b, mk(1<<30, nil)); got != n {
				b.Fatalf("rows = %d", got)
			}
		}
	})
	b.Run("spill", func(b *testing.B) {
		b.ReportAllocs()
		sm := &SpillMetrics{}
		for i := 0; i < b.N; i++ {
			if got := drainBench(b, mk(1, sm)); got != n {
				b.Fatalf("rows = %d", got)
			}
		}
		st := sm.Stats()
		if st.SortRuns == 0 {
			b.Fatal("spill bench did not spill")
		}
		b.ReportMetric(float64(st.SortRuns)/float64(b.N), "runs/op")
		b.ReportMetric(float64(st.SpilledBytes)/float64(b.N), "spilled-B/op")
	})
	b.Run("fullsort-limit10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lim := &limitOp{child: mk(1<<30, nil), n: 10}
			if got := drainBench(b, lim); got != 10 {
				b.Fatalf("rows = %d", got)
			}
		}
	})
}

// BenchmarkTopN is the fused ORDER BY + LIMIT path over the same input as
// BenchmarkExtSort/fullsort-limit10: a bounded 10-heap instead of a 50k-row
// materialized sort. Its allocs/op is gated by bench_gate.sh.
func BenchmarkTopN(b *testing.B) {
	const n = 50_000
	rows := benchRows(n)
	keys := colKeys(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := drainBench(b, newTopNOp(benchReplay(rows, nil), keys, 10, 0, nil)); got != 10 {
			b.Fatalf("rows = %d", got)
		}
	}
}

// BenchmarkSpillAgg compares hash aggregation within budget against the
// grace-spilling path on a high-cardinality GROUP BY, over pooled source
// pages.
func BenchmarkSpillAgg(b *testing.B) {
	const n = 50_000
	rows := make([]value.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, value.Row{
			value.NewText(fmt.Sprintf("group-%05d", (i*48271)%20_000)),
			value.NewInt(int64(i % 1000)),
		})
	}
	node := &plan.Aggregate{
		GroupBy: []plan.Expr{&plan.Column{Idx: 0}},
		Aggs:    []plan.AggSpec{{Kind: plan.AggCountStar}, {Kind: plan.AggSum, Arg: &plan.Column{Idx: 1}}},
	}
	pp := NewPagePool()
	mk := func(workMem int64, sm *SpillMetrics) *aggregateOp {
		a := &aggregateOp{node: node, child: benchReplay(rows, pp), pageRows: 64,
			workMem: workMem, spillM: sm}
		a.groupBy = []plan.CompiledExpr{plan.Compile(&plan.Column{Idx: 0})}
		a.aggArg = []plan.CompiledExpr{nil, plan.Compile(&plan.Column{Idx: 1})}
		return a
	}
	b.Run("inmem", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := drainBench(b, mk(1<<30, nil)); got != 20_000 {
				b.Fatalf("groups = %d", got)
			}
		}
	})
	b.Run("spill", func(b *testing.B) {
		b.ReportAllocs()
		sm := &SpillMetrics{}
		for i := 0; i < b.N; i++ {
			if got := drainBench(b, mk(1, sm)); got != 20_000 {
				b.Fatalf("groups = %d", got)
			}
		}
		if sm.Stats().AggSpills == 0 {
			b.Fatal("spill bench did not spill")
		}
		b.ReportMetric(float64(sm.Stats().AggPartitions)/float64(b.N), "partitions/op")
	})
}

// BenchmarkSpillJoin compares the streaming hash join within budget against
// the grace-partitioned path, with source and output pages from one pool.
func BenchmarkSpillJoin(b *testing.B) {
	const n = 30_000
	mkSide := func() []value.Row {
		rows := make([]value.Row, 0, n)
		for i := 0; i < n; i++ {
			rows = append(rows, value.Row{
				value.NewInt(int64((i * 48271) % 25_000)),
				value.NewText(fmt.Sprintf("row-%06d", i)),
			})
		}
		return rows
	}
	probe, build := mkSide(), mkSide()
	node := &plan.Join{L: &plan.SeqScan{}, R: &plan.SeqScan{},
		LeftKeys: []int{0}, RightKey: []int{0}}
	pp := NewPagePool()
	mk := func(workMem int64, sm *SpillMetrics) *hashJoin {
		return &hashJoin{node: node, left: benchReplay(probe, pp), right: benchReplay(build, pp),
			pageRows: 64, pool: pp, workMem: workMem, spillM: sm}
	}
	want := 0
	b.Run("inmem", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			want = drainBench(b, mk(1<<30, nil))
		}
	})
	b.Run("spill", func(b *testing.B) {
		b.ReportAllocs()
		sm := &SpillMetrics{}
		for i := 0; i < b.N; i++ {
			if got := drainBench(b, mk(1, sm)); want > 0 && got != want {
				b.Fatalf("rows = %d, want %d", got, want)
			}
		}
		if sm.Stats().JoinSpills == 0 {
			b.Fatal("spill bench did not spill")
		}
		b.ReportMetric(float64(sm.Stats().JoinPartitions)/float64(b.N), "partitions/op")
	})
}
