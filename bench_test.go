package stagedb

// One benchmark per table/figure of the paper plus the §4.4 ablations. Each
// bench regenerates its experiment and reports the headline quantity as a
// custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the evaluation end to end.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"stagedb/internal/experiments"
	"stagedb/internal/plan"
	"stagedb/internal/queuesim"
	"stagedb/internal/sql"
	"stagedb/internal/workload"
)

// parseForBench exposes the parser to the front-end microbench.
func parseForBench(q string) (sql.Statement, error) { return sql.Parse(q) }

// BenchmarkFig1Trace regenerates the Figure 1 execution traces and reports
// the elapsed-time ratio of round-robin over stage-affinity scheduling.
func BenchmarkFig1Trace(b *testing.B) {
	var res experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig1(96)
	}
	b.ReportMetric(float64(res.RoundRobinElapsed)/float64(res.AffinityElapsed), "rr/affinity-elapsed")
}

// BenchmarkFig2 sweeps thread-pool sizes for both workloads; the reported
// metrics are the %-of-max throughput at the paper's interesting points.
func BenchmarkFig2(b *testing.B) {
	for _, wl := range []string{"A", "B"} {
		b.Run("workload="+wl, func(b *testing.B) {
			var points []experiments.Fig2Point
			jobs := 150
			if wl == "B" {
				jobs = 60
			}
			for i := 0; i < b.N; i++ {
				points = experiments.Fig2(wl, nil, jobs, 42)
			}
			for _, p := range points {
				switch p.Threads {
				case 1, 5, 20, 200:
					b.ReportMetric(p.PctOfMax, fmt.Sprintf("pct-of-max@%dthr", p.Threads))
				}
			}
		})
	}
}

// BenchmarkParseAffinity regenerates the §3.1.3 experiment; the metric is
// the warm-parser improvement percentage (paper: 7%).
func BenchmarkParseAffinity(b *testing.B) {
	var res experiments.AffinityResult
	for i := 0; i < b.N; i++ {
		res = experiments.Affinity()
	}
	b.ReportMetric(res.ImprovementPct, "improvement-%")
}

// BenchmarkFig5 runs the production-line policy study at 95% load for a
// reduced l sweep; metrics are mean response times in ms per policy at the
// highest l.
func BenchmarkFig5(b *testing.B) {
	for _, lf := range []float64{0.1, 0.4} {
		b.Run(fmt.Sprintf("l=%.0f%%", lf*100), func(b *testing.B) {
			var rows []experiments.Fig5Row
			for i := 0; i < b.N; i++ {
				rows = experiments.Fig5([]float64{lf}, 0.95, 6000)
			}
			for _, r := range rows[0].Results {
				b.ReportMetric(r.MeanResponse.Seconds()*1000, r.Policy.Name()+"-ms")
			}
		})
	}
}

// BenchmarkFig5Policies benches one simulator run per policy so relative
// simulation costs are visible too.
func BenchmarkFig5Policies(b *testing.B) {
	for _, p := range queuesim.Figure5Policies() {
		b.Run(p.Name(), func(b *testing.B) {
			cfg := queuesim.DefaultConfig(0.3, 0.95)
			cfg.Jobs, cfg.Warmup = 4000, 400
			var res queuesim.Result
			for i := 0; i < b.N; i++ {
				res = queuesim.Run(cfg, p)
			}
			b.ReportMetric(res.MeanResponse.Seconds()*1000, "mean-response-ms")
		})
	}
}

// BenchmarkGranularity is the §4.4(b) ablation: same work, k stages.
func BenchmarkGranularity(b *testing.B) {
	var points []experiments.GranularityPoint
	for i := 0; i < b.N; i++ {
		points = experiments.Granularity([]int{1, 5, 40}, 16, 1)
	}
	for _, p := range points {
		b.ReportMetric(p.Elapsed.Seconds()*1000, fmt.Sprintf("elapsed-ms@%dstages", p.Stages))
	}
}

// BenchmarkPolicyLoad is the §4.4(d) ablation: policies across loads.
func BenchmarkPolicyLoad(b *testing.B) {
	var rows []experiments.PolicyLoadRow
	for i := 0; i < b.N; i++ {
		rows = experiments.PolicyLoad([]float64{0.7, 0.95}, 0.3, 4000)
	}
	for _, row := range rows {
		best := row.Results[0]
		for _, r := range row.Results {
			if r.MeanResponse < best.MeanResponse {
				best = r
			}
		}
		b.ReportMetric(best.MeanResponse.Seconds()*1000, fmt.Sprintf("best-ms@rho=%.0f%%", row.Rho*100))
	}
}

// --- engine-level benches: the real system under the paper's workloads ---

func loadWisconsin(b *testing.B, db *DB, tables []string, rows int) {
	b.Helper()
	for i, tbl := range tables {
		if _, err := db.Exec(workload.WisconsinDDL(tbl)); err != nil {
			b.Fatal(err)
		}
		for _, stmt := range workload.WisconsinRows(tbl, rows, uint64(i+1), 250) {
			if _, err := db.Exec(stmt); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Analyze(tbl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineWorkloadA runs the §3.1.1 Workload A query mix on both
// architectures (selection/aggregation queries).
func BenchmarkEngineWorkloadA(b *testing.B) {
	for _, mode := range []struct {
		name string
		mode Mode
	}{{"staged", Staged}, {"threaded", Threaded}} {
		b.Run(mode.name, func(b *testing.B) {
			db := mustOpen(b, Options{Mode: mode.mode})
			defer db.Close()
			loadWisconsin(b, db, []string{"tenk"}, 2000)
			gen := workload.NewWorkloadA("tenk", 2000, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(gen.Next()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineWorkloadB runs the Workload B join mix on both
// architectures.
func BenchmarkEngineWorkloadB(b *testing.B) {
	for _, mode := range []struct {
		name string
		mode Mode
	}{{"staged", Staged}, {"threaded", Threaded}} {
		b.Run(mode.name, func(b *testing.B) {
			db := mustOpen(b, Options{Mode: mode.mode})
			defer db.Close()
			loadWisconsin(b, db, []string{"wtab", "wtab2"}, 1000)
			gen := workload.NewWorkloadB("wtab", 1000, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(gen.Next()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPageSize is the §4.4(c) ablation on the live staged engine.
func BenchmarkPageSize(b *testing.B) {
	for _, pr := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("rows=%d", pr), func(b *testing.B) {
			db := mustOpen(b, Options{PageRows: pr})
			defer db.Close()
			loadWisconsin(b, db, []string{"p1", "p12"}, 1000)
			q := "SELECT a.ten, COUNT(*) FROM p1 a JOIN p12 b ON a.unique1 = b.unique1 GROUP BY a.ten"
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParser measures the SQL front end on its own.
func BenchmarkParser(b *testing.B) {
	q := "SELECT a.ten, COUNT(*) AS n FROM t1 a JOIN t2 b ON a.id = b.id WHERE a.x BETWEEN 1 AND 100 AND b.name LIKE 'abc%' GROUP BY a.ten ORDER BY n DESC LIMIT 10"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parseForBench(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedScan pits N concurrent scan-heavy queries against staged
// execution with synchronized scans (the default) and with sharing
// disabled.
// The custom metric heap-reads/op counts page-store reads (IOStats) per
// benchmark iteration (8 queries). Synchronized scans share pages only
// through the buffer pool, so with an 8-frame pool it stays near the
// unshared level; share-fanout is 1 by construction (each scan decodes its
// own pages).
func BenchmarkSharedScan(b *testing.B) {
	const clients = 8
	for _, m := range []struct {
		name string
		opts Options
	}{
		{"staged-shared", Options{ExecWorkers: 4, PoolFrames: 8}},
		{"staged-unshared", Options{ExecWorkers: 4, PoolFrames: 8, DisableSharedScans: true}},
	} {
		b.Run(m.name, func(b *testing.B) {
			db := mustOpen(b, m.opts)
			defer db.Close()
			loadPadded(b, db, 3000)
			q := "SELECT grp, COUNT(*) FROM padded GROUP BY grp"
			readsBefore, _ := db.IOStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						conn := db.Conn()
						if _, err := conn.Query(q); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			readsAfter, _ := db.IOStats()
			b.ReportMetric(float64(readsAfter-readsBefore)/float64(b.N), "heap-reads/op")
			if st := db.ScanShares(); st.Starts > 0 {
				b.ReportMetric(float64(st.PagesDelivered)/float64(st.PagesDecoded), "share-fanout")
			}
		})
	}
}

// BenchmarkScanStreamLimit shows scans no longer materialize the table: a
// LIMIT query over a multi-page table allocates O(limit), not O(table), and
// reads only a prefix of the heap (heap-reads/op stays tiny).
func BenchmarkScanStreamLimit(b *testing.B) {
	db := mustOpen(b, Options{Mode: Threaded, Workers: 1, PoolFrames: 8})
	defer db.Close()
	loadPadded(b, db, 3000)
	q := "SELECT id FROM padded LIMIT 10"
	readsBefore, _ := db.IOStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	readsAfter, _ := db.IOStats()
	b.ReportMetric(float64(readsAfter-readsBefore)/float64(b.N), "heap-reads/op")
}

// BenchmarkJoinStreamLimit shows the hash join's probe side streams: a
// LIMIT over a join against a large probe table reads only a prefix of its
// heap (heap-reads/op stays far below the table's page count) and holds
// O(build) memory, because the probe side is no longer materialized before
// emitting.
func BenchmarkJoinStreamLimit(b *testing.B) {
	db := mustOpen(b, Options{Mode: Threaded, Workers: 1, PoolFrames: 8})
	defer db.Close()
	loadPadded(b, db, 3000)
	if _, err := db.Exec("CREATE TABLE dims (id INT, name TEXT)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO dims VALUES (%d, 'd%d')", i, i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Analyze("dims"); err != nil {
		b.Fatal(err)
	}
	// FROM order keeps padded (large) as the probe side.
	db.kernel.SetPlanOptions(plan.Options{DisableJoinReorder: true, DisableIndex: true})
	q := "SELECT p.id, d.name FROM padded p, dims d WHERE p.id = d.id LIMIT 10"
	readsBefore, _ := db.IOStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 10 {
			b.Fatalf("got %d rows", len(res.Rows))
		}
	}
	b.StopTimer()
	readsAfter, _ := db.IOStats()
	b.ReportMetric(float64(readsAfter-readsBefore)/float64(b.N), "heap-reads/op")
}

// BenchmarkClientStreamFirstRow measures time-to-first-row on the client
// API: the streaming Rows cursor sees its first row as soon as the first
// exchange page leaves the pipeline, while the materializing wrapper waits
// for the whole result. The gap is the latency the streaming redesign
// removes (and the early Close keeps client memory at O(page)).
func BenchmarkClientStreamFirstRow(b *testing.B) {
	for _, m := range []struct {
		name   string
		stream bool
	}{{"streaming", true}, {"materializing", false}} {
		b.Run(m.name, func(b *testing.B) {
			db := mustOpen(b, Options{})
			defer db.Close()
			loadPadded(b, db, 3000)
			ctx := context.Background()
			q := "SELECT id, grp FROM padded"
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m.stream {
					rows, err := db.QueryContext(ctx, q)
					if err != nil {
						b.Fatal(err)
					}
					if !rows.Next() {
						b.Fatal("no rows")
					}
					if err := rows.Close(); err != nil {
						b.Fatal(err)
					}
				} else {
					res, err := db.Query(q)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) == 0 {
						b.Fatal("no rows")
					}
				}
			}
		})
	}
}

// BenchmarkPreparedExec measures prepared vs unprepared re-execution of a
// point SELECT. The prepared path binds arguments into the cached plan and
// enters the pipeline at the execute stage; the bench asserts the parse and
// optimize stages' service counts stay flat across the timed loop.
func BenchmarkPreparedExec(b *testing.B) {
	for _, m := range []struct {
		name     string
		prepared bool
	}{{"prepared", true}, {"unprepared", false}} {
		b.Run(m.name, func(b *testing.B) {
			db := mustOpen(b, Options{})
			defer db.Close()
			loadWisconsin(b, db, []string{"ptab"}, 2000)
			ctx := context.Background()
			var stmt *Stmt
			if m.prepared {
				var err error
				stmt, err = db.Prepare("SELECT unique1 FROM ptab WHERE unique2 = ?")
				if err != nil {
					b.Fatal(err)
				}
				defer stmt.Close()
			}
			parse0 := stageServiced(db, "parse")
			opt0 := stageServiced(db, "optimize")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := i % 2000
				if m.prepared {
					rows, err := stmt.QueryContext(ctx, key)
					if err != nil {
						b.Fatal(err)
					}
					rows.Next()
					if err := rows.Close(); err != nil {
						b.Fatal(err)
					}
				} else {
					if _, err := db.Query("SELECT unique1 FROM ptab WHERE unique2 = ?", key); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			if m.prepared {
				if d := stageServiced(db, "parse") - parse0; d != 0 {
					b.Fatalf("prepared loop grew parse stage by %d", d)
				}
				if d := stageServiced(db, "optimize") - opt0; d != 0 {
					b.Fatalf("prepared loop grew optimize stage by %d", d)
				}
			}
			b.ReportMetric(float64(stageServiced(db, "parse")-parse0)/float64(b.N), "parse-services/op")
		})
	}
}
