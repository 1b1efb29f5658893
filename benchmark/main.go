// Command benchmark is stagedb's fixed yardstick: four workloads against the
// real engine, five gated end-to-end metrics, and a traced run that times
// calls into each module's public functions from here (the layer ladder).
// See README.md in this directory and BENCHMARK.json at the repository root.
//
//	bash benchmark/run.sh                       # all four workloads, both runs
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measured window.
const defaultSeconds = 20

// An untraced run opens and loads the database several times and reports the
// median as setup_s, so one slow first touch does not set it: at least
// minSetupRuns times, and up to maxSetupRuns while the set-ups so far have
// taken less than setupBudget (a 0.1 s set-up needs more repeats to settle
// than a 1 s one).
const (
	minSetupRuns = 3
	maxSetupRuns = 9
	setupBudget  = 2 * time.Second
)

// watchdog bounds one workload run; the contract allows 180 s.
const watchdog = 170 * time.Second

var workloadWhy = map[string]string{
	wlPointReadWire: "2 client.Conns point-select 20k in-memory rows over loopback: time is client/wire/server/front-end stages; exec, txn and storage do close to nothing",
	wlOLTPDurable:   "2 embedded Conns, 50% point read / 30% update / 20% insert, group-commit fsync, no wire: WAL flushes, the table write lock and UPDATE's row location dominate",
	wlAnalyticsMem:  "2 embedded Conns cycle agg/join/stream over 200k rows (3x the buffer pool) at default WorkMem: exec operators, StagePool, shared scans and page eviction do the work",
	wlAnalyticsSpil: "same data, WorkMem 1 MB: external sort, grace aggregation and grace join must spill; the same exec layer used differently",
}

// env is the machine and build context every output file carries.
type env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func readEnv() env {
	e := env{Commit: os.Getenv("STAGEDB_BENCH_COMMIT"), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPUModel: "unknown"}
	if e.Commit == "" {
		e.Commit = "unknown"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				e.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	return e
}

// runConfig is one workload run's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

func (c runConfig) sizes() sizes {
	if c.smoke {
		return smokeSizes
	}
	return fullSizes
}

// warmup is the unrecorded lead-in: caches, lazy workers and the allocator
// settle before the window opens.
func (c runConfig) warmup() time.Duration {
	if c.smoke {
		return 200 * time.Millisecond
	}
	return 2 * time.Second
}

// metricOut is one reported metric; Value is null where the workload has
// nothing the metric could measure.
type metricOut struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// report is one run's output file.
type report struct {
	Workload   string                            `json:"workload"`
	Why        string                            `json:"why"`
	Seed       int64                             `json:"seed"`
	Trace      int                               `json:"trace"`
	Seconds    float64                           `json:"seconds"`
	WarmupS    float64                           `json:"warmup_s"`
	Clients    int                               `json:"clients"`
	Smoke      bool                              `json:"smoke"`
	Env        env                               `json:"env"`
	Sizes      sizes                             `json:"sizes"`
	Correct    bool                              `json:"correct"`
	Attempted  int64                             `json:"attempted"`
	Failed     int64                             `json:"failed"`
	Retried    int64                             `json:"retried"`
	FirstError string                            `json:"first_error,omitempty"`
	SetupRunsS []float64                         `json:"setup_runs_s"`
	Metrics    map[string]metricOut              `json:"metrics"`
	Timings    map[string]timing                 `json:"timings"`
	FirstRow   *timing                           `json:"first_row,omitempty"`
	Durability *durability                       `json:"durability,omitempty"`
	Ladder     map[string]map[string]rungSummary `json:"ladder,omitempty"`
	LadderK    int                               `json:"ladder_k,omitempty"`
	LadderRaw  *ladderRun                        `json:"ladder_raw,omitempty"`
	TraceFile  string                            `json:"trace_file,omitempty"`
	Claim      *string                           `json:"claim"`
}

// runWorkload runs one workload once: set-up, warm-up, the measured window,
// the correctness checks and, when tracing, the ladder.
func runWorkload(ctx context.Context, cfg runConfig) (*report, error) {
	sz := cfg.sizes()
	rep := &report{Workload: cfg.workload, Why: workloadWhy[cfg.workload], Seed: cfg.seed, Seconds: cfg.seconds,
		WarmupS: cfg.warmup().Seconds(), Clients: numClients, Smoke: cfg.smoke, Env: readEnv(), Sizes: sz,
		Metrics: make(map[string]metricOut), Timings: make(map[string]timing)}
	if cfg.trace {
		rep.Trace = 1
	}
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("run-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var orc *oracle
	if cfg.workload == wlAnalyticsMem || cfg.workload == wlAnalyticsSpil {
		orc = newOracle(sz)
	}

	// Set-up. An untraced run sets up several times and reports the median;
	// the last one is the database the window runs on.
	var t *top
	var spent time.Duration
	for i := 0; i < maxSetupRuns && (i < minSetupRuns || spent < setupBudget); i++ {
		if t != nil {
			if cfg.trace {
				break // the traced run reports no setup_s: one set-up
			}
			if err := t.close(ctx); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i-1, err)
			}
			runtime.GC()
			debug.FreeOSMemory()
		}
		begin := time.Now()
		var err error
		if t, err = openTop(ctx, cfg.workload, sz, filepath.Join(dir, fmt.Sprintf("top%d", i))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		spent += time.Since(begin)
		rep.SetupRunsS = append(rep.SetupRunsS, time.Since(begin).Seconds())
	}
	defer func() {
		if t != nil {
			t.close(ctx)
		}
	}()

	cs, err := newClients(ctx, t, sz, cfg.seed, orc)
	if err != nil {
		return nil, err
	}
	defer closeClients(cs)
	w := runWindow(ctx, t, cs, cfg.warmup(), time.Duration(cfg.seconds*float64(time.Second)))
	rep.Attempted, rep.Failed, rep.Retried = w.totals()
	var problems []string
	if err := w.firstErr(); err != nil {
		problems = append(problems, err.Error())
	}
	if rep.Attempted == 0 {
		problems = append(problems, "no operation completed inside the window")
	}
	for _, kind := range workloadKinds[cfg.workload] {
		rep.Timings[kind] = summarize(w.latencies(kind))
	}
	if fr := w.firstRows(); len(fr) > 0 {
		s := summarize(fr)
		rep.FirstRow = &s
	}

	// The spill contract: every op of analytics_spill spills, none of
	// analytics_mem does. The window checks the total; the traced run's
	// single-client pass checks it per shape.
	spilled := w.after.spill.SpilledBytes - w.before.spill.SpilledBytes
	switch {
	case cfg.workload == wlAnalyticsSpil && spilled == 0:
		problems = append(problems, "analytics_spill spilled nothing")
	case cfg.workload == wlAnalyticsMem && spilled != 0:
		problems = append(problems, fmt.Sprintf("analytics_mem spilled %d bytes", spilled))
	}

	var deadRatio *float64
	if cfg.workload == wlOLTPDurable {
		live, dead, err := t.db.TableVersions("acct")
		if err != nil {
			return nil, err
		}
		r := float64(dead) / float64(live+dead)
		deadRatio = &r
		if rep.Durability, err = checkDurability(ctx, t, cs, sz, dir); err != nil {
			problems = append(problems, "durability: "+err.Error())
		}
	}

	var vals values
	if cfg.trace {
		l, err := runLadder(ctx, cfg.workload, sz, cfg.seed, cfg.smoke, t, cs, dir)
		if err != nil {
			return nil, err
		}
		for kind, b := range l.SpillBytesByKind {
			if cfg.workload == wlAnalyticsSpil && b == 0 {
				problems = append(problems, "shape "+kind+" did not spill")
			}
			if cfg.workload != wlAnalyticsSpil && b != 0 {
				problems = append(problems, fmt.Sprintf("shape %s spilled %.0f bytes per op", kind, b))
			}
		}
		rep.Ladder, rep.LadderK, rep.LadderRaw = l.summary(), l.k, l
		rep.TraceFile = filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s.jsonl", cfg.workload))
		if err := writeTrace(rep.TraceFile, rep, l.spans); err != nil {
			return nil, err
		}
		vals = layerValues(cfg.workload, sz, w, l, rep.Durability, deadRatio)
	} else {
		vals = endToEndValues(cfg.workload, w, medianFloat(rep.SetupRunsS))
	}
	for _, d := range defsFor(cfg.trace) {
		rep.Metrics[d.Name] = metricOut{Value: vals[d.Name], Unit: d.Unit}
		if !cfg.trace && vals[d.Name] == nil {
			problems = append(problems, "end-to-end metric "+d.Name+" has no value")
		}
	}

	closeClients(cs)
	err = t.close(ctx)
	t = nil
	if err != nil {
		problems = append(problems, "close: "+err.Error())
	}
	rep.Correct = len(problems) == 0 && rep.Failed == 0
	rep.FirstError = strings.Join(problems, "; ")
	return rep, nil
}

// defsFor lists the metrics a run reports: end-to-end untraced, per-layer
// traced.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// writeTrace writes the ladder's spans, one JSON object per line, after a
// header line carrying the run's seed and machine context.
func writeTrace(path string, rep *report, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	header := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Env      env    `json:"env"`
		Spans    int    `json:"spans"`
	}{rep.Workload, rep.Seed, rep.Env, len(spans)}
	err = enc.Encode(header)
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(spans[i])
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printReport prints every metric by name with its unit, then — last line —
// the contract's JSON object.
func printReport(out io.Writer, rep *report, defs []metricDef) error {
	fmt.Fprintf(out, "# workload %s seed %d trace %d seconds %g commit %s %s GOMAXPROCS=%d nproc=%d cpu=%q\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Seconds, rep.Env.Commit, rep.Env.GoVersion, rep.Env.GOMAXPROCS, rep.Env.NProc, rep.Env.CPUModel)
	for _, kind := range workloadKinds[rep.Workload] {
		tm := rep.Timings[kind]
		fmt.Fprintf(out, "# timing %s n=%d median_us=%s tail_pct=%s tail_us=%s\n", kind, tm.N, fmtPtr(tm.MedianUs), fmtPtr(tm.TailPct), fmtPtr(tm.TailUs))
	}
	if rep.FirstError != "" {
		fmt.Fprintf(out, "# INCORRECT: %s\n", rep.FirstError)
	}
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, make(map[string]lineMetric)}
	for _, d := range defs {
		m := rep.Metrics[d.Name]
		fmt.Fprintf(out, "metric %s %s %s %s\n", rep.Workload, d.Name, fmtPtr(m.Value), d.Unit)
		// The contract line carries numbers only: a null (nothing to measure
		// on this workload) goes out as 0; the report file keeps the null.
		lm := lineMetric{Unit: d.Unit}
		if m.Value != nil {
			lm.Value = *m.Value
		}
		line.Metrics[d.Name] = lm
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func fmtPtr(p *float64) string {
	if p == nil {
		return "null"
	}
	return fmt.Sprintf("%.6g", *p)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed of the per-client op streams")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured window, seconds")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		smoke    = flag.Bool("smoke", false, "tiny tables and 1 s windows: proves the plumbing, measures nothing")
		outDir   = flag.String("out", filepath.Join(".bench_build", "out"), "directory for report, trace and scratch files")
		runs     = flag.Int("runs", 1, "all-workloads mode: untraced runs per workload")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
		bench    = flag.String("bench", "BENCHMARK.json", "BENCHMARK.json, for -compare's bounds")
	)
	flag.Parse()
	// The engine resolves unset options through these; the benchmark's
	// configuration must not depend on the caller's shell.
	os.Unsetenv("STAGEDB_WORKMEM")
	os.Unsetenv("STAGEDB_DATADIR")
	if *smoke && *seconds == defaultSeconds {
		*seconds = 1
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		ok, err := compareSets(os.Stdout, *bench, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	ctx := context.Background()
	if *workload == "" {
		if err := runAll(ctx, *seed, *seconds, *smoke, *runs, *outDir); err != nil {
			fatal(err)
		}
		return
	}
	if workloadWhy[*workload] == "" {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", ")))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s still running after %s: giving up\n", *workload, watchdog)
		os.Exit(3)
	})
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, outDir: *outDir}
	rep, err := runWorkload(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	if err := writeJSON(filepath.Join(*outDir, fmt.Sprintf("report-%s-trace%d.json", cfg.workload, rep.Trace)), rep); err != nil {
		fatal(err)
	}
	if err := printReport(os.Stdout, rep, defsFor(cfg.trace)); err != nil {
		fatal(err)
	}
	if !rep.Correct {
		// The result line is out, with "correct": false; the exit code says
		// the same to callers that read nothing else.
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
