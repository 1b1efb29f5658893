// Autotune: the §4.4 self-tuning loop in action. The staged engine runs a
// shifting workload while the controllers recommend per-stage thread counts,
// stage groupings against the cache, and the scheduling policy for the
// current operating point.
package main

import (
	"fmt"
	"log"

	"stagedb"
	"stagedb/internal/autotune"
	"stagedb/internal/queuesim"
	"stagedb/internal/workload"
)

func main() {
	db, err := stagedb.Open(stagedb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(workload.WisconsinDDL("t")); err != nil {
		log.Fatal(err)
	}
	for _, stmt := range workload.WisconsinRows("t", 2000, 1, 200) {
		if _, err := db.Exec(stmt); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := db.Exec(workload.WisconsinDDL("t2")); err != nil {
		log.Fatal(err)
	}
	for _, stmt := range workload.WisconsinRows("t2", 2000, 2, 200) {
		if _, err := db.Exec(stmt); err != nil {
			log.Fatal(err)
		}
	}
	for _, tbl := range []string{"t", "t2"} {
		if err := db.Analyze(tbl); err != nil {
			log.Fatal(err)
		}
	}

	// Phase 1: selection-heavy traffic.
	gen := workload.NewWorkloadA("t", 2000, 3)
	for i := 0; i < 60; i++ {
		if _, err := db.Query(gen.Next()); err != nil {
			log.Fatal(err)
		}
	}
	// Phase 2: the workload shifts to joins.
	genB := workload.NewWorkloadB("t", 2000, 4)
	for i := 0; i < 20; i++ {
		if _, err := db.Query(genB.Next()); err != nil {
			log.Fatal(err)
		}
	}

	// (a) per-stage thread counts from the observed queue lengths.
	fmt.Println("observed stages and §4.4(a) thread recommendations:")
	snaps := db.Stages()
	for i, rec := range autotune.TuneExecWorkers(snaps, 0, 16) {
		if s := snaps[i]; s.Serviced > 0 {
			fmt.Printf("  %-12s serviced=%-6d queue=%-4d -> %d worker(s)\n", rec.Stage, s.Serviced, s.QueueLen, rec.Workers)
		}
	}

	// (b) stage grouping against the cache size.
	fmt.Println("\n§4.4(b) stage grouping for a 512 KB cache:")
	groups := autotune.GroupStages([]autotune.Module{
		{Name: "parse", Bytes: 100 << 10},
		{Name: "rewrite", Bytes: 40 << 10},
		{Name: "optimize", Bytes: 220 << 10},
		{Name: "fscan", Bytes: 96 << 10},
		{Name: "sort", Bytes: 96 << 10},
		{Name: "join", Bytes: 160 << 10},
		{Name: "aggr", Bytes: 64 << 10},
	}, 512<<10)
	for i, g := range groups {
		fmt.Printf("  stage %d: %v (%d KB)\n", i, g.Modules, g.Bytes>>10)
	}

	// (c) page size from measured samples.
	best := autotune.TunePageSize([]autotune.PageSample{
		{PageRows: 1, Throughput: 180},
		{PageRows: 16, Throughput: 290},
		{PageRows: 64, Throughput: 310},
		{PageRows: 512, Throughput: 300},
	})
	fmt.Printf("\n§4.4(c) best measured page size: %d rows/page\n", best)

	// (d) scheduling policy for the operating point, validated in the
	// production-line simulator.
	for _, op := range []struct{ rho, lf float64 }{{0.4, 0.1}, {0.95, 0.01}, {0.95, 0.3}} {
		p := autotune.ChoosePolicy(op.rho, op.lf)
		cfg := queuesim.DefaultConfig(op.lf, op.rho)
		cfg.Jobs, cfg.Warmup = 4000, 400
		r := queuesim.Run(cfg, p)
		fmt.Printf("§4.4(d) load=%.0f%% l=%.0f%% -> %-10s (simulated mean response %.2fs)\n",
			op.rho*100, op.lf*100, p.Name(), r.MeanResponse.Seconds())
	}

	// (e) the per-query work-mem budget from observed spill pressure: a
	// deliberately tiny budget forces the ORDER BY to spill sorted runs, and
	// the controller doubles the budget in response.
	tiny, err := stagedb.Open(stagedb.Options{WorkMem: 64 << 10})
	if err != nil {
		log.Fatal(err)
	}
	defer tiny.Close()
	if _, err := tiny.Exec(workload.WisconsinDDL("t")); err != nil {
		log.Fatal(err)
	}
	for _, stmt := range workload.WisconsinRows("t", 3000, 5, 200) {
		if _, err := tiny.Exec(stmt); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := tiny.Query("SELECT unique1 FROM t ORDER BY stringu1"); err != nil {
		log.Fatal(err)
	}
	st := tiny.SpillStats()
	fmt.Printf("\n§4.4(e) work-mem: %d KB budget spilled %d sorted run(s); retuned to %d KB\n",
		tiny.WorkMem()>>10, st.SortRuns, tiny.AutotuneWorkMem(0)>>10)
}
