package exec

// Micro-benchmarks of the vectorized operator kernels, recorded to
// BENCH_exec.json by bench.sh. They drive the operators directly over
// synthetic pooled pages, so the numbers isolate kernel cost (compiled
// expressions, selection vectors, page recycling) from parsing, planning,
// and storage.

import (
	"strings"
	"testing"

	"stagedb/internal/catalog"
	"stagedb/internal/plan"
	"stagedb/internal/storage"
	"stagedb/internal/value"
)

// genSource emits `pages` pooled pages of `pageRows` two-column rows
// (id INT, grp INT), recycling row storage across benchmark iterations.
type genSource struct {
	pool     *PagePool
	rows     []value.Row // pregenerated row headers, reused every iteration
	pageRows int
	pos      int
}

func newGenSource(pool *PagePool, total, pageRows int) *genSource {
	rows := make([]value.Row, total)
	arena := make([]value.Value, total*2)
	for i := range rows {
		r := arena[i*2 : i*2+2 : i*2+2]
		r[0] = value.NewInt(int64(i))
		r[1] = value.NewInt(int64(i % 10))
		rows[i] = value.Row(r)
	}
	return &genSource{pool: pool, rows: rows, pageRows: pageRows}
}

func (s *genSource) Open() error { s.pos = 0; return nil }
func (s *genSource) Next() (*Page, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	end := s.pos + s.pageRows
	if end > len(s.rows) {
		end = len(s.rows)
	}
	pg := s.pool.Get(s.pageRows)
	pg.Rows = append(pg.Rows, s.rows[s.pos:end]...)
	s.pos = end
	return pg, nil
}
func (s *genSource) Close() error { return nil }

// drain pulls an operator tree to completion, releasing pages.
func drain(b *testing.B, op Operator) int {
	b.Helper()
	if err := op.Open(); err != nil {
		b.Fatal(err)
	}
	defer op.Close()
	n := 0
	for {
		pg, err := op.Next()
		if err != nil {
			b.Fatal(err)
		}
		if pg == nil {
			return n
		}
		n += pg.Len()
		pg.Release()
	}
}

// BenchmarkFilterKernel: compiled-predicate selection-vector filtering of
// 4096 rows per iteration (pred: id % 3 = 0).
func BenchmarkFilterKernel(b *testing.B) {
	pool := NewPagePool()
	src := newGenSource(pool, 4096, DefaultPageRows)
	pred := plan.CompilePredicate(&plan.Binary{
		Op: "=",
		L:  &plan.Binary{Op: "%", L: &plan.Column{Idx: 0, Name: "id", Typ: value.Int}, R: &plan.Const{Val: value.NewInt(3)}},
		R:  &plan.Const{Val: value.NewInt(0)},
	})
	f := &filterOp{child: src, pred: pred}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := drain(b, f); got != 4096/3+1 {
			b.Fatalf("filter kept %d rows", got)
		}
	}
}

// BenchmarkAggKernel: vectorized hash aggregation (GROUP BY grp, COUNT(*),
// SUM(id)) over 4096 rows per iteration.
func BenchmarkAggKernel(b *testing.B) {
	pool := NewPagePool()
	src := newGenSource(pool, 4096, DefaultPageRows)
	node := &plan.Aggregate{
		GroupBy: []plan.Expr{&plan.Column{Idx: 1, Name: "grp", Typ: value.Int}},
		Aggs: []plan.AggSpec{
			{Kind: plan.AggCountStar},
			{Kind: plan.AggSum, Arg: &plan.Column{Idx: 0, Name: "id", Typ: value.Int}},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := &aggregateOp{node: node, child: src, pageRows: DefaultPageRows, groupHint: 10}
		a.groupBy = []plan.CompiledExpr{plan.Compile(node.GroupBy[0])}
		a.aggArg = []plan.CompiledExpr{nil, plan.Compile(node.Aggs[1].Arg)}
		if got := drain(b, a); got != 10 {
			b.Fatalf("agg produced %d groups", got)
		}
	}
}

// BenchmarkHashJoinStream: streaming-probe hash join against a 1024-row
// build side, per iteration: equi (4096 probe rows, unique keys), keyless (a
// 64-row probe side crossed with the build side) and residual (the same 64
// probe rows on grp < grp, which rejects 53% of the candidates).
func BenchmarkHashJoinStream(b *testing.B) {
	for _, bc := range []struct {
		name, q string
		probe   int
		want    int
	}{
		{"equi", "SELECT * FROM l JOIN r ON l.id = r.id", 4096, 1024},
		{"keyless", "SELECT * FROM l, r", 64, 64 * 1024},
		{"residual", "SELECT * FROM l JOIN r ON l.grp < r.grp", 64, 30642},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pool := NewPagePool()
			probe := newGenSource(pool, bc.probe, DefaultPageRows)
			build := newGenSource(pool, 1024, DefaultPageRows)
			jn := planJoin(b, bc.q)
			var resid plan.CompiledPredicate
			if jn.Residual != nil {
				resid = plan.CompilePredicate(jn.Residual)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := &hashJoin{node: jn, left: probe, right: build, pageRows: DefaultPageRows, pool: pool,
					resid: resid, buildHint: 1024}
				if got := drain(b, j); got != bc.want {
					b.Fatalf("join produced %d rows, want %d", got, bc.want)
				}
			}
		})
	}
}

// BenchmarkHashJoinStreamLimit: the same join cut off by LIMIT 8 — the
// streaming probe means per-iteration work is proportional to the limit,
// not the probe cardinality. probe-pages/op records how much of the 64-page
// probe input was actually pulled.
func BenchmarkHashJoinStreamLimit(b *testing.B) {
	pool := NewPagePool()
	probe := newGenSource(pool, 4096, DefaultPageRows)
	build := newGenSource(pool, 1024, DefaultPageRows)
	jn := &plan.Join{
		L: &plan.SeqScan{}, R: &plan.SeqScan{},
		LeftKeys: []int{0}, RightKey: []int{0},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var probePages int
	for i := 0; i < b.N; i++ {
		j := &hashJoin{node: jn, left: probe, right: build, pageRows: DefaultPageRows, pool: pool, buildHint: 1024}
		lim := &limitOp{child: j, n: 8}
		if got := drain(b, lim); got != 8 {
			b.Fatalf("limit join produced %d rows", got)
		}
		probePages = probe.pos / DefaultPageRows
	}
	b.StopTimer()
	b.ReportMetric(float64(probePages), "probe-pages/op")
	if probePages > 2 {
		b.Fatalf("probe side materialized: %d pages pulled for LIMIT 8", probePages)
	}
}

// BenchmarkDecodeRow: the per-row decode of 4096 records of the benchmark's
// fact table (id, grp, k, val INT, pad TEXT of 64 bytes) per iteration —
// every column, and the two (grp, val) the aggregate shape reads. The
// records are version records and each decode starts past the header.
// "page" decodes the way the scans do, through one compiled RowDecoder into
// rows carved from a recycled exchange page's value storage; "alloc"
// allocates a row per record (DecodeRow, what DML and recovery use).
// "probe" is UPDATE's target walk: 4096 records of the benchmark's acct
// table (id, grp, bal INT, pad TEXT of 100 bytes), decoding only the `id`
// its `WHERE id = ?` reads into one reused row.
func BenchmarkDecodeRow(b *testing.B) {
	schema := catalog.Schema{Columns: []catalog.Column{
		{Name: "id", Type: value.Int}, {Name: "grp", Type: value.Int}, {Name: "k", Type: value.Int},
		{Name: "val", Type: value.Int}, {Name: "pad", Type: value.Text},
	}}
	recs := make([][]byte, 4096)
	for i := range recs {
		n := int64(i)
		recs[i] = versionOf(b, schema, value.Row{
			value.NewInt(n), value.NewInt(n % 10), value.NewInt(n % 50000), value.NewInt(n * 7 % 1000),
			value.NewText(strings.Repeat("p", 64)),
		})
	}
	for _, bc := range []struct {
		name string
		cols []bool
	}{
		{"full", nil},
		{"pruned", []bool{false, true, false, true, false}},
	} {
		b.Run(bc.name+"/page", func(b *testing.B) {
			b.ReportAllocs()
			dec, err := storage.NewRowDecoder(schema, bc.cols)
			if err != nil {
				b.Fatal(err)
			}
			pool := NewPagePool()
			var sum int64
			for i := 0; i < b.N; i++ {
				pg := pool.Get(DefaultPageRows)
				for _, rec := range recs {
					if len(pg.Rows) == DefaultPageRows {
						pg.Release()
						pg = pool.Get(DefaultPageRows)
					}
					row := pg.carve(len(schema.Columns))
					payload, _ := storage.PayloadOf(rec)
					if err := dec.Decode(payload, row); err != nil {
						b.Fatal(err)
					}
					pg.Rows = append(pg.Rows, row)
					sum += row[3].Int()
				}
				pg.Release()
			}
			if sum == 0 {
				b.Fatal("decoded nothing")
			}
		})
		b.Run(bc.name+"/alloc", func(b *testing.B) {
			b.ReportAllocs()
			var sum int64
			for i := 0; i < b.N; i++ {
				for _, rec := range recs {
					payload, _ := storage.PayloadOf(rec)
					row, err := storage.DecodeRow(schema, payload, bc.cols)
					if err != nil {
						b.Fatal(err)
					}
					sum += row[3].Int()
				}
			}
			if sum == 0 {
				b.Fatal("decoded nothing")
			}
		})
	}
	b.Run("probe", func(b *testing.B) {
		acct := catalog.Schema{Columns: []catalog.Column{
			{Name: "id", Type: value.Int}, {Name: "grp", Type: value.Int},
			{Name: "bal", Type: value.Int}, {Name: "pad", Type: value.Text},
		}}
		recs := make([][]byte, 4096)
		for i := range recs {
			n := int64(i)
			recs[i] = versionOf(b, acct, value.Row{
				value.NewInt(n), value.NewInt(n % 10), value.NewInt(n * 100), value.NewText(strings.Repeat("a", 100)),
			})
		}
		b.ReportAllocs()
		dec, err := storage.NewRowDecoder(acct, []bool{true, false, false, false})
		if err != nil {
			b.Fatal(err)
		}
		probe := make(value.Row, len(acct.Columns))
		var sum int64
		for i := 0; i < b.N; i++ {
			for _, rec := range recs {
				payload, _ := storage.PayloadOf(rec)
				if err := dec.Decode(payload, probe); err != nil {
					b.Fatal(err)
				}
				sum += probe[0].Int()
			}
		}
		if sum == 0 {
			b.Fatal("decoded nothing")
		}
	})
}
