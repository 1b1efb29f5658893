// Command figures regenerates every table and figure of the paper's
// evaluation from the simulators in internal/experiments.
//
// Usage:
//
//	figures [fig1|fig2|fig5|affinity|table1|granularity|pagesize|policyload|all]
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"stagedb"
	"stagedb/internal/experiments"
	"stagedb/internal/metrics"
	"stagedb/internal/workload"
)

func main() {
	which := "all"
	if len(os.Args) > 1 {
		which = os.Args[1]
	}
	runners := map[string]func(){
		"fig1":        fig1,
		"fig2":        fig2,
		"fig5":        fig5,
		"affinity":    affinity,
		"table1":      table1,
		"granularity": granularity,
		"pagesize":    pagesize,
		"policyload":  policyload,
	}
	if which == "all" {
		for _, name := range []string{"fig1", "fig2", "affinity", "fig5", "table1", "granularity", "pagesize", "policyload"} {
			runners[name]()
		}
		return
	}
	run, ok := runners[which]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
		os.Exit(2)
	}
	run()
}

func header(title string) {
	fmt.Printf("\n==== %s ====\n\n", title)
}

func fig1() {
	header("Figure 1 — uncontrolled context-switching (4 queries, parse+optimize, 1 CPU)")
	res := experiments.Fig1(96)
	fmt.Println("preemptive round-robin (the paper's Figure 1 pathology):")
	fmt.Print(res.RoundRobinTrace)
	fmt.Printf("elapsed %v, overhead %v\n\n", res.RoundRobinElapsed, res.RoundRobinOverhead)
	fmt.Println("stage-affinity scheduling (the staged remedy, §5.1):")
	fmt.Print(res.AffinityTrace)
	fmt.Printf("elapsed %v, overhead %v\n", res.AffinityElapsed, res.AffinityOverhead)
}

func fig2() {
	header("Figure 2 — throughput vs thread-pool size (% of max)")
	rowsA := experiments.Fig2("A", nil, 200, 42)
	rowsB := experiments.Fig2("B", nil, 80, 42)
	head := []string{"threads", "Workload A", "Workload B"}
	var cells [][]string
	for i := range rowsA {
		cells = append(cells, []string{
			fmt.Sprintf("%d", rowsA[i].Threads),
			fmt.Sprintf("%.1f%%", rowsA[i].PctOfMax),
			fmt.Sprintf("%.1f%%", rowsB[i].PctOfMax),
		})
	}
	fmt.Print(metrics.Table(head, cells))
	fmt.Println("\n(A: short I/O-bound queries peak around >=20 threads and plateau;")
	fmt.Println(" B: long in-memory joins degrade once working sets thrash the cache.)")
}

func affinity() {
	header("§3.1.3 — parse affinity (real parser through the cache model)")
	res := experiments.Affinity()
	fmt.Printf("query 2 parse cost, unrelated work in between: %v\n", res.ColdCost)
	fmt.Printf("query 2 parse cost, back-to-back:              %v\n", res.WarmCost)
	fmt.Printf("improvement: %.1f%%   (paper: 7%%)\n", res.ImprovementPct)
}

func fig5() {
	header("Figure 5 — mean response time at 95% load (5 modules, m+l = 100 ms)")
	rows := experiments.Fig5(nil, 0.95, 20000)
	fmt.Print(experiments.Fig5Table(rows))
	fmt.Println("\n(staged policies overtake the baselines once l exceeds ~2% of execution")
	fmt.Println(" time and keep improving as l grows — the paper's headline result.)")
}

func table1() {
	header("Table 1 — data and code references across all queries")
	fmt.Print(experiments.Table1())
}

func granularity() {
	header("§4.4(b) ablation — stage granularity (same work split into k stages)")
	points := experiments.Granularity(nil, 16, 1)
	head := []string{"stages", "elapsed", "overhead", "working-set loads"}
	var cells [][]string
	for _, p := range points {
		cells = append(cells, []string{
			fmt.Sprintf("%d", p.Stages),
			p.Elapsed.String(),
			p.Overhead.String(),
			fmt.Sprintf("%d", p.LoadCount),
		})
	}
	fmt.Print(metrics.Table(head, cells))
	fmt.Println("\n(one monolithic stage cannot fit the cache; very fine stages pay")
	fmt.Println(" per-boundary overhead — the sweet spot is in between.)")
}

func pagesize() {
	header("§4.4(c) ablation — intermediate-result page size (staged join on the real engine)")
	head := []string{"page rows", "join+group time"}
	var cells [][]string
	for _, rows := range []int{1, 4, 16, 64, 256} {
		d := timeJoin(rows)
		cells = append(cells, []string{fmt.Sprintf("%d", rows), d.String()})
	}
	fmt.Print(metrics.Table(head, cells))
	fmt.Println("\n(tiny pages pay per-page exchange overhead; large pages raise latency")
	fmt.Println(" per stage visit — §4.4(c) tunes this knob.)")
}

func timeJoin(pageRows int) time.Duration {
	db, err := stagedb.Open(stagedb.Options{PageRows: pageRows, BufferPages: 4})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	ctx := context.Background()
	mustLoad(ctx, db)
	q := "SELECT a.ten, COUNT(*) FROM wtab a JOIN wtab2 b ON a.unique1 = b.unique1 GROUP BY a.ten"
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := db.ExecContext(ctx, q); err != nil {
			panic(err)
		}
	}
	return time.Since(start) / 5
}

func mustLoad(ctx context.Context, db *stagedb.DB) {
	for _, tbl := range []string{"wtab", "wtab2"} {
		if _, err := db.ExecContext(ctx, workload.WisconsinDDL(tbl)); err != nil {
			panic(err)
		}
		for _, stmt := range workload.WisconsinRows(tbl, 2000, 1, 200) {
			if _, err := db.ExecContext(ctx, stmt); err != nil {
				panic(err)
			}
		}
		if err := db.Analyze(tbl); err != nil {
			panic(err)
		}
	}
}

func policyload() {
	header("§4.4(d) ablation — best policy vs offered load (l = 30%)")
	rows := experiments.PolicyLoad(nil, 0.3, 10000)
	head := []string{"load"}
	for _, r := range rows[0].Results {
		head = append(head, r.Policy.Name())
	}
	var cells [][]string
	for _, row := range rows {
		line := []string{fmt.Sprintf("%.0f%%", row.Rho*100)}
		for _, r := range row.Results {
			line = append(line, fmt.Sprintf("%.2fs", r.MeanResponse.Seconds()))
		}
		cells = append(cells, line)
	}
	fmt.Print(metrics.Table(head, cells))
	fmt.Println("\n(different policies prevail at different loads — §4.4(d)'s tuning target.)")
}
