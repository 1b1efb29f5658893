// Package experiments regenerates every figure and table of the paper's
// evaluation. Each experiment is a pure function of its parameters and a
// seed, so results are reproducible.
package experiments

import (
	"fmt"
	"time"

	"stagedb/internal/cache"
	"stagedb/internal/cpusim"
	"stagedb/internal/disk"
	"stagedb/internal/metrics"
	"stagedb/internal/queuesim"
	"stagedb/internal/sql"
	"stagedb/internal/trace"
	"stagedb/internal/vclock"
	"stagedb/internal/workload"
)

// --- Figure 1: context-switching trace ---

// Fig1Result is the rendered timeline plus the CPU time breakdown under both
// the preemptive round-robin baseline and the stage-affinity policy.
type Fig1Result struct {
	RoundRobinTrace    string
	AffinityTrace      string
	RoundRobinElapsed  time.Duration
	AffinityElapsed    time.Duration
	RoundRobinOverhead time.Duration
	AffinityOverhead   time.Duration
}

// Fig1 reproduces the paper's Figure 1 scenario: four concurrent queries,
// each passing through parse then optimize, one CPU, no I/O. Under
// preemptive round-robin the CPU keeps reloading evicted working sets;
// under stage-affinity scheduling queries batch per module.
func Fig1(width int) Fig1Result {
	run := func(policy cpusim.Policy) (string, time.Duration, time.Duration) {
		clk := vclock.NewClock()
		cfg := cpusim.Default2003()
		cfg.CacheBytes = 256 << 10
		cfg.Trace = true
		m := cpusim.NewMachine(clk, cfg, policy)
		parse := &cpusim.Module{Name: "parse", CommonBytes: 100 << 10}
		opt := &cpusim.Module{Name: "optimize", CommonBytes: 100 << 10}
		var jobs []*cpusim.Job
		for i := 0; i < 4; i++ {
			jobs = append(jobs, &cpusim.Job{
				ID:           i,
				PrivateBytes: 64 << 10,
				Segments: []cpusim.Segment{
					{Module: parse, CPU: 5 * time.Millisecond},
					{Module: opt, CPU: 5 * time.Millisecond},
				},
			})
		}
		m.AddWorkers(4)
		m.Submit(jobs...)
		clk.Run()
		return trace.Render(m.Spans(), width), time.Duration(clk.Now()), m.OverheadTime()
	}
	rrTrace, rrEnd, rrOver := run(cpusim.RoundRobin{Q: time.Millisecond})
	affTrace, affEnd, affOver := run(cpusim.Affinity{})
	return Fig1Result{
		RoundRobinTrace: rrTrace, AffinityTrace: affTrace,
		RoundRobinElapsed: rrEnd, AffinityElapsed: affEnd,
		RoundRobinOverhead: rrOver, AffinityOverhead: affOver,
	}
}

// --- Figure 2: throughput vs thread-pool size ---

// Fig2Point is one measurement of the Figure 2 sweep.
type Fig2Point struct {
	Threads    int
	Throughput float64 // queries per second of virtual time
	PctOfMax   float64 // percentage of the best throughput in the sweep
}

// Fig2PoolSizes is the paper's sweep range (its x axis runs 0..200).
func Fig2PoolSizes() []int { return []int{1, 2, 5, 10, 20, 50, 100, 150, 200} }

// Fig2 reproduces §3.1.1: the execution engine is fed a pre-parsed query
// queue and run with different worker-pool sizes. Workload A (short,
// I/O-bound) needs ~20 threads to overlap its disk reads; Workload B (long,
// in-memory, big private state) degrades beyond a handful of threads as the
// threads' working sets thrash the cache.
func Fig2(workloadName string, poolSizes []int, jobs int, seed uint64) []Fig2Point {
	if len(poolSizes) == 0 {
		poolSizes = Fig2PoolSizes()
	}
	if jobs <= 0 {
		jobs = 200
	}
	mods := workload.NewSimModules()
	points := make([]Fig2Point, 0, len(poolSizes))
	for _, workers := range poolSizes {
		clk := vclock.NewClock()
		cfg := cpusim.Default2003()
		cfg.Disk = disk.New(clk, disk.Default2003())
		// A 2003-class machine fills caches at a few hundred MB/s, and a
		// thread whose working set was evicted misses throughout its slice.
		cfg.MemBandwidth = 400 << 20
		cfg.ColdSlowdown = 1.4
		m := cpusim.NewMachine(clk, cfg, cpusim.RoundRobin{Q: 10 * time.Millisecond})
		var js []*cpusim.Job
		switch workloadName {
		case "A":
			js = workload.JobsA(jobs, seed, mods)
		case "B":
			js = workload.JobsB(jobs, seed, mods)
		default:
			panic(fmt.Sprintf("experiments: unknown workload %q", workloadName))
		}
		m.AddWorkers(workers)
		m.Submit(js...)
		clk.Run()
		elapsed := clk.Now().Seconds()
		points = append(points, Fig2Point{Threads: workers, Throughput: float64(jobs) / elapsed})
	}
	best := 0.0
	for _, p := range points {
		if p.Throughput > best {
			best = p.Throughput
		}
	}
	for i := range points {
		points[i].PctOfMax = points[i].Throughput / best * 100
	}
	return points
}

// --- §3.1.3: parse affinity ---

// AffinityResult reports the parse-affinity measurement.
type AffinityResult struct {
	// ColdCost is query 2's parse cost when unrelated work ran in between.
	ColdCost time.Duration
	// WarmCost is query 2's parse cost immediately after query 1.
	WarmCost time.Duration
	// ImprovementPct is (cold-warm)/cold*100; the paper measured 7%.
	ImprovementPct float64
}

// affinityProbe maps parser touch events into the simulated cache. Regions
// follow Table 1: keyword table and parser code are COMMON (shared by all
// queries); the input text and AST nodes are PRIVATE per query.
type affinityProbe struct {
	cache *cache.SetAssoc
	base  map[string]cache.Addr
	cost  time.Duration
}

// cpuPerStep is the pure-computation cost modeled per parser step (each
// probe event corresponds to a burst of instructions); it dilutes the
// cache-miss share of total parse time to a realistic fraction, which is
// what makes the paper's warm-parser gain a single-digit percentage.
const cpuPerStep = 400 * time.Nanosecond

func newAffinityProbe() *affinityProbe {
	return &affinityProbe{
		// A small L2 slice dedicated to the parser: 64 KB, 8-way, 64 B lines.
		cache: cache.NewSetAssoc(cache.SetAssocConfig{
			SizeBytes: 64 << 10, LineBytes: 64, Ways: 8,
			HitCost: 10 * time.Nanosecond, MissCost: 150 * time.Nanosecond,
		}),
		base: map[string]cache.Addr{
			"keywords": 0x0000_0000,
			"code":     0x0010_0000,
			"input":    0x0020_0000,
			"ast":      0x0030_0000,
		},
	}
}

// probeFor returns the sql.Probe for one query; queryIdx separates private
// regions between queries, common regions are shared.
func (p *affinityProbe) probeFor(queryIdx int) sql.Probe {
	return func(region string, off, size int) {
		base, ok := p.base[region]
		if !ok {
			base = 0x0040_0000
		}
		if region == "input" || region == "ast" {
			base += cache.Addr(queryIdx) << 16 // private per query
		}
		p.cost += cpuPerStep + p.cache.Touch(base+cache.Addr(off), size)
	}
}

// evictParser simulates unrelated work (optimizer, scans) touching enough
// data to evict the parser's common working set.
func (p *affinityProbe) evictParser() {
	p.cache.Touch(0x0100_0000, 256<<10)
}

// Affinity reproduces the §3.1.3 experiment with the real SQL parser: two
// similar selection queries are parsed with their memory touches routed
// through the simulated cache; scenario (a) runs unrelated operations
// between the parses, scenario (b) parses back to back.
func Affinity() AffinityResult {
	q1 := "SELECT unique1, unique2, stringu1 FROM tenktup1 WHERE unique2 BETWEEN 100 AND 199 AND four = 2"
	q2 := "SELECT unique1, unique2, stringu1 FROM tenktup2 WHERE unique2 BETWEEN 300 AND 399 AND four = 1"

	parseCost := func(p *affinityProbe, idx int, q string) time.Duration {
		before := p.cost
		parser := sql.NewParser(q)
		parser.SetProbe(p.probeFor(idx))
		if _, err := parser.ParseStatement(); err != nil {
			panic(fmt.Sprintf("experiments: affinity parse: %v", err))
		}
		return p.cost - before
	}

	// Scenario (a): unrelated work between the two parses.
	pa := newAffinityProbe()
	parseCost(pa, 1, q1)
	pa.evictParser()
	cold := parseCost(pa, 2, q2)

	// Scenario (b): back-to-back parses.
	pb := newAffinityProbe()
	parseCost(pb, 1, q1)
	warm := parseCost(pb, 2, q2)

	imp := 0.0
	if cold > 0 {
		imp = float64(cold-warm) / float64(cold) * 100
	}
	return AffinityResult{ColdCost: cold, WarmCost: warm, ImprovementPct: imp}
}

// --- Figure 5: scheduling policies ---

// Fig5Row is one (load fraction, policy) cell of the Figure 5 sweep.
type Fig5Row struct {
	LoadFraction float64
	Results      []queuesim.Result
}

// Fig5LoadFractions is the paper's x axis: l as 0..60% of execution time.
func Fig5LoadFractions() []float64 { return []float64{0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6} }

// Fig5 sweeps module load fraction at the given offered load (the paper
// uses 0.95) for the five policies.
func Fig5(loadFractions []float64, rho float64, jobs int) []Fig5Row {
	if len(loadFractions) == 0 {
		loadFractions = Fig5LoadFractions()
	}
	if jobs <= 0 {
		jobs = 20000
	}
	out := make([]Fig5Row, 0, len(loadFractions))
	for _, lf := range loadFractions {
		row := Fig5Row{LoadFraction: lf}
		for _, p := range queuesim.Figure5Policies() {
			cfg := queuesim.DefaultConfig(lf, rho)
			cfg.Jobs = jobs
			cfg.Warmup = jobs / 10
			row.Results = append(row.Results, queuesim.Run(cfg, p))
		}
		out = append(out, row)
	}
	return out
}

// Fig5Table renders the sweep as the text analogue of Figure 5.
func Fig5Table(rows []Fig5Row) string {
	header := []string{"l (% of exec)"}
	for _, p := range queuesim.Figure5Policies() {
		header = append(header, p.Name())
	}
	var cells [][]string
	for _, row := range rows {
		line := []string{fmt.Sprintf("%.0f%%", row.LoadFraction*100)}
		for _, r := range row.Results {
			line = append(line, fmt.Sprintf("%.2fs", r.MeanResponse.Seconds()))
		}
		cells = append(cells, line)
	}
	return metrics.Table(header, cells)
}

// --- Table 1: reference classification ---

// Table1 reproduces the paper's classification of data and code references,
// annotated with this system's concrete artifacts and a measured touch count
// per parser region from an instrumented parse.
func Table1() string {
	counts := map[string]int{}
	parser := sql.NewParser("SELECT unique1, COUNT(*) FROM tenktup1 WHERE unique2 BETWEEN 1 AND 100 GROUP BY unique1")
	parser.SetProbe(func(region string, off, size int) { counts[region]++ })
	if _, err := parser.ParseStatement(); err != nil {
		panic(err)
	}
	header := []string{"classification", "data", "code", "measured parser touches"}
	rows := [][]string{
		{"PRIVATE", "plan, packet backpack, intermediate pages", "none",
			fmt.Sprintf("input=%d ast=%d", counts["input"], counts["ast"])},
		{"SHARED", "heaps, B+tree indexes", "operator kernels (nl/sm/hash join)", "-"},
		{"COMMON", "catalog, keyword/symbol table", "parser, optimizer, stage runtime",
			fmt.Sprintf("keywords=%d code=%d", counts["keywords"], counts["code"])},
	}
	return metrics.Table(header, rows)
}

// --- ablation: stage granularity (§4.4 a/b) ---

// GranularityPoint measures one stage-granularity configuration.
type GranularityPoint struct {
	Stages    int
	Elapsed   time.Duration
	Overhead  time.Duration
	LoadCount uint64
}

// Granularity runs the same total work split into k modules for each k: one
// monolithic stage cannot fit its working set in the cache (every query
// reloads), while very fine stages pay per-boundary switching overhead —
// the trade-off of §4.4(b).
func Granularity(stageCounts []int, queries int, seed uint64) []GranularityPoint {
	if len(stageCounts) == 0 {
		stageCounts = []int{1, 2, 5, 10, 20, 40}
	}
	const totalWS = 400 << 10              // total server working set
	const totalCPU = 50 * time.Millisecond // per query
	out := make([]GranularityPoint, 0, len(stageCounts))
	for _, k := range stageCounts {
		clk := vclock.NewClock()
		cfg := cpusim.Default2003()
		cfg.CacheBytes = 128 << 10
		cfg.CtxSwitch = 20 * time.Microsecond
		m := cpusim.NewMachine(clk, cfg, cpusim.Affinity{})
		mods := make([]*cpusim.Module, k)
		for i := range mods {
			mods[i] = &cpusim.Module{Name: fmt.Sprintf("m%d", i), CommonBytes: int64(totalWS / int64(k))}
		}
		var jobs []*cpusim.Job
		for q := 0; q < queries; q++ {
			segs := make([]cpusim.Segment, k)
			for i := range segs {
				segs[i] = cpusim.Segment{Module: mods[i], CPU: totalCPU / time.Duration(k)}
			}
			jobs = append(jobs, &cpusim.Job{ID: q, PrivateBytes: 8 << 10, Segments: segs})
		}
		m.AddWorkers(queries)
		m.Submit(jobs...)
		clk.Run()
		out = append(out, GranularityPoint{
			Stages:    k,
			Elapsed:   time.Duration(clk.Now()),
			Overhead:  m.OverheadTime(),
			LoadCount: m.CacheLoads(),
		})
	}
	return out
}

// --- ablation: policy vs load (§4.4 d) ---

// PolicyLoadRow is one (offered load, policy) sweep row.
type PolicyLoadRow struct {
	Rho     float64
	Results []queuesim.Result
}

// PolicyLoad sweeps offered load at a fixed module-load fraction, showing
// which policy prevails where (§4.4d).
func PolicyLoad(rhos []float64, loadFraction float64, jobs int) []PolicyLoadRow {
	if len(rhos) == 0 {
		rhos = []float64{0.5, 0.7, 0.9, 0.95, 0.99}
	}
	if jobs <= 0 {
		jobs = 10000
	}
	out := make([]PolicyLoadRow, 0, len(rhos))
	for _, rho := range rhos {
		row := PolicyLoadRow{Rho: rho}
		for _, p := range queuesim.Figure5Policies() {
			cfg := queuesim.DefaultConfig(loadFraction, rho)
			cfg.Jobs = jobs
			cfg.Warmup = jobs / 10
			row.Results = append(row.Results, queuesim.Run(cfg, p))
		}
		out = append(out, row)
	}
	return out
}
