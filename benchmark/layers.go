package main

import (
	"strings"
	"time"

	"stagedb/internal/value"
)

// metricDef names one metric; the lists below are what BENCHMARK.json
// declares, in the same order (a test holds the two together).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the gated metrics. The contract wants every one of them on
// every workload, so they are the ones every workload has; the class-specific
// latencies (read, write, query, first row) and the tails are per-layer.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var (
	coreStages = []string{"connect", "parse", "optimize", "execute", "disconnect"}
	execStages = []string{"fscan", "iscan", "filter", "join", "aggr", "sort"}
)

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"class.read_p50_us", "us", "lower"},
		{"class.write_p50_ms", "ms", "lower"},
		{"class.query_p50_ms", "ms", "lower"},
		{"class.first_row_p50_ms", "ms", "lower"},
		{"tail.read_p99_us", "us", "lower"},
		{"tail.write_p99_ms", "ms", "lower"},
		{"tail.query_p95_ms", "ms", "lower"},
		{"oltp.update_p50_ms", "ms", "lower"},
		{"oltp.insert_p50_ms", "ms", "lower"},
		{"client.call_us", "us", "lower"},
		{"wire.codec_us_per_op", "us", "lower"},
		{"wire.bytes_per_op", "B", "lower"},
		{"server.self_us", "us", "lower"},
		{"server.shed_share", "ratio", "lower"},
		{"server.sessions", "count", "lower"},
		{"stagedb.self_us", "us", "lower"},
		{"core.queue_us", "us", "lower"},
	}
	for _, s := range coreStages {
		defs = append(defs,
			metricDef{"core." + s + ".busy_us_per_op", "us", "lower"},
			metricDef{"core." + s + ".max_queue", "count", "lower"})
	}
	defs = append(defs,
		metricDef{"sql.parse_us", "us", "lower"},
		metricDef{"plan.bind_us", "us", "lower"},
		metricDef{"engine.plan_cache_hit_ratio", "ratio", "higher"},
		metricDef{"engine.session_self_us", "us", "lower"},
		metricDef{"txn.syncs_per_op", "count", "lower"},
		metricDef{"txn.syncs_per_read", "count", "lower"},
		metricDef{"txn.commits_per_sync", "ratio", "higher"},
		metricDef{"txn.synced_bytes_per_write", "B", "lower"},
		metricDef{"txn.commit_us", "us", "lower"},
		metricDef{"txn.checkpoints", "count", "lower"},
		metricDef{"txn.recover_s", "s", "lower"},
		metricDef{"mvcc.conflicts_per_kop", "count", "lower"},
		metricDef{"mvcc.retried_share", "ratio", "lower"},
		metricDef{"mvcc.dead_version_ratio", "ratio", "lower"},
		metricDef{"storage.space_amp", "ratio", "lower"},
		metricDef{"storage.page_reads_per_op", "count", "lower"},
		metricDef{"storage.page_writes_per_op", "count", "lower"},
		metricDef{"storage.pages_read_per_row_returned", "ratio", "lower"},
		metricDef{"storage.point_us", "us", "lower"},
		metricDef{"storage.scan_us", "us", "lower"},
		metricDef{"exec.volcano_us", "us", "lower"},
		metricDef{"exec.staged_us", "us", "lower"},
		metricDef{"exec.staged_over_volcano", "ratio", "lower"})
	for _, s := range execStages {
		defs = append(defs, metricDef{"exec." + s + ".busy_share", "ratio", "lower"})
	}
	return append(defs,
		metricDef{"exec.share_fanout", "ratio", "higher"},
		metricDef{"exec.share_attach_ratio", "ratio", "higher"},
		metricDef{"exec.pagepool_hit_ratio", "ratio", "higher"},
		metricDef{"value.hash_rows_ns_per_row", "ns", "lower"},
		metricDef{"exec.spill_bytes_per_op", "B", "lower"},
		metricDef{"exec.spill_partitions_per_op", "count", "lower"},
		metricDef{"exec.spill_files_per_op", "count", "lower"},
		metricDef{"exec.spill_over_mem", "ratio", "lower"},
		metricDef{"proc.allocs_per_op", "count", "lower"},
		metricDef{"proc.alloc_bytes_per_op", "B", "lower"},
		metricDef{"proc.gc_pause_ms", "ms", "lower"},
		metricDef{"trace.overhead_share", "ratio", "lower"})
}()

// values maps a metric name to its value; a nil entry is null: the workload
// has nothing the metric could measure.
type values map[string]*float64

func (v values) set(name string, x float64) { v[name] = &x }

// setRatio records a/b, or leaves the metric null when b is zero.
func (v values) setRatio(name string, a, b float64) {
	if b != 0 {
		v.set(name, a/b)
	}
}

// rungSummary is one rung's standing for one op kind.
type rungSummary struct {
	N        int      `json:"n"`
	MedianUs float64  `json:"median_us"`
	SelfUs   *float64 `json:"self_us"`
}

// summary reduces the spans to per-kind ladders: each rung's median and self
// time. A rung with no span for a kind is absent (null).
func (l *ladderRun) summary() map[string]map[string]rungSummary {
	out := make(map[string]map[string]rungSummary)
	for _, kind := range workloadKinds[l.workload] {
		med := make(map[string]float64)
		rungs := make(map[string]rungSummary)
		for rung, byKind := range l.samples {
			if d := byKind[kind]; len(d) > 0 {
				m, _ := percentile(sortedDurations(d), 50)
				med[rung] = micros(m)
				rungs[rung] = rungSummary{N: len(d), MedianUs: micros(m)}
			}
		}
		for rung, s := range selfTimes(med) {
			rs := rungs[rung]
			self := s
			rs.SelfUs = &self
			rungs[rung] = rs
		}
		out[kind] = rungs
	}
	return out
}

// flatLadder averages a rung's median (or self time) over the workload's
// ladder kinds: the single number the flat per-layer list carries. nil when
// no kind has the rung.
func flatLadder(sum map[string]map[string]rungSummary, kinds []string, rung string, self bool) *float64 {
	var total float64
	n := 0
	for _, kind := range kinds {
		rs, ok := sum[kind][rung]
		if !ok {
			continue
		}
		if self {
			if rs.SelfUs == nil {
				continue
			}
			total += *rs.SelfUs
		} else {
			total += rs.MedianUs
		}
		n++
	}
	if n == 0 {
		return nil
	}
	mean := total / float64(n)
	return &mean
}

// hashRowsNsPerRow times value.HashRows, the vectorized join/aggregation
// kernel, over pages of the executor's page size keyed like fact.k.
func hashRowsNsPerRow(sz sizes) float64 {
	const pageRows, pages, rounds = 64, 256, 8
	data := make([][]value.Row, pages)
	for p := range data {
		data[p] = make([]value.Row, pageRows)
		for i := range data[p] {
			data[p][i] = value.Row{value.NewInt(int64(kOf(p*pageRows+i, sz)))}
		}
	}
	cols := []int{0}
	var dst []uint64
	begin := time.Now()
	for r := 0; r < rounds; r++ {
		for _, pg := range data {
			dst = value.HashRows(pg, cols, dst)
		}
	}
	return float64(time.Since(begin).Nanoseconds()) / float64(rounds*pages*pageRows)
}

func medianMs(d []time.Duration) (float64, bool) {
	m, ok := percentile(sortedDurations(d), 50)
	return micros(m) / 1e3, ok
}

// classMedianMs is a class's median latency: the mean of its kinds' medians.
// Pooling the kinds instead would put the median of a mix of shapes that
// cost 0.3 s and 0.5 s wherever the boundary between two shapes happens to
// fall; this way each kind's own median counts equally and a kind that slows
// moves the figure in proportion. ok is false until every kind has a sample.
func (w *window) classMedianMs(kinds []string) (float64, bool) {
	var sum float64
	for _, k := range kinds {
		m, ok := medianMs(w.latencies(k))
		if !ok {
			return 0, false
		}
		sum += m
	}
	return sum / float64(len(kinds)), len(kinds) > 0
}

// endToEndValues computes the gated metrics from an untraced window.
func endToEndValues(workload string, w *window, setupS float64) values {
	v := values{}
	v.set("setup_s", setupS)
	v.set("throughput_ops_s", w.throughput())
	if m, ok := w.classMedianMs(gatedKinds[workload]); ok {
		v.set("op_p50_ms", m)
	}
	cpu := w.after.cpu - w.before.cpu
	v.setRatio("cpu_ms_per_op", float64(cpu.Nanoseconds())/1e6, float64(w.succeeded()))
	v.set("peak_rss_mb", peakRSSMB())
	return v
}

// layerValues derives the per-layer metrics: counter deltas over the
// two-client window, exact counts from the single-client counts pass, and
// rung medians and self times from the ladder.
func layerValues(workload string, sz sizes, w *window, l *ladderRun, dur *durability, deadRatio *float64) values {
	v := values{}
	ops := float64(w.succeeded())
	a, b := w.after, w.before

	// Class latencies and tails of the window.
	// ms is the metric's scale: 1 for a metric in ms, 1e-3 for one in us. The
	// tail is the pooled class's; the median is classMedianMs.
	class := func(p50, tail string, pct, ms float64, kinds ...string) {
		if m, ok := w.classMedianMs(kinds); ok {
			v.set(p50, m/ms)
		}
		if t, ok := percentile(sortedDurations(w.latencies(kinds...)), pct); ok && tail != "" {
			v.set(tail, micros(t)/1e3/ms)
		}
	}
	switch workload {
	case wlPointReadWire:
		class("class.read_p50_us", "tail.read_p99_us", 99, 1e-3, kRead)
	case wlOLTPDurable:
		class("class.read_p50_us", "tail.read_p99_us", 99, 1e-3, kRead)
		class("class.write_p50_ms", "tail.write_p99_ms", 99, 1, kUpdate, kInsert)
		class("oltp.update_p50_ms", "", 50, 1, kUpdate)
		class("oltp.insert_p50_ms", "", 50, 1, kInsert)
	default:
		class("class.query_p50_ms", "tail.query_p95_ms", 95, 1, workloadKinds[workload]...)
		if m, ok := medianMs(w.firstRows()); ok {
			v.set("class.first_row_p50_ms", m)
		}
	}

	// Front-end and exec stage monitors.
	for _, s := range coreStages {
		v.setRatio("core."+s+".busy_us_per_op", micros(a.stages[s].Busy-b.stages[s].Busy), ops)
		v.set("core."+s+".max_queue", float64(a.stages[s].MaxQueue))
	}
	var execBusy time.Duration
	for _, s := range append([]string{"exec"}, execStages...) {
		execBusy += a.stages[s].Busy - b.stages[s].Busy
	}
	for _, s := range execStages {
		v.setRatio("exec."+s+".busy_share", float64(a.stages[s].Busy-b.stages[s].Busy), float64(execBusy))
	}
	v.setRatio("exec.share_fanout", float64(a.shares.PagesDelivered-b.shares.PagesDelivered), float64(a.shares.PagesDecoded-b.shares.PagesDecoded))
	starts, attaches := float64(a.shares.Starts-b.shares.Starts), float64(a.shares.Attaches-b.shares.Attaches)
	v.setRatio("exec.share_attach_ratio", attaches, starts+attaches)
	hits, misses := float64(a.pagepool.Hits-b.pagepool.Hits), float64(a.pagepool.Misses-b.pagepool.Misses)
	v.setRatio("exec.pagepool_hit_ratio", hits, hits+misses)
	v.set("value.hash_rows_ns_per_row", hashRowsNsPerRow(sz))

	// Concurrency-dependent transaction counters: only the two-client window
	// can form commit groups or conflicts.
	if a.wal != nil {
		v.setRatio("txn.commits_per_sync", float64(a.wal["commits"]-b.wal["commits"]), float64(a.wal["syncs"]-b.wal["syncs"]))
		v.set("txn.checkpoints", float64(a.wal["checkpoints"]-b.wal["checkpoints"]))
	}
	if workload == wlOLTPDurable {
		v.setRatio("mvcc.conflicts_per_kop", 1000*float64(a.mvcc.Conflicts-b.mvcc.Conflicts), ops)
		attempted, _, retried := w.totals()
		v.setRatio("mvcc.retried_share", float64(retried), float64(attempted))
	}
	if deadRatio != nil {
		v.set("mvcc.dead_version_ratio", *deadRatio)
	}
	if dur != nil {
		v.set("txn.recover_s", dur.RecoverS)
	}
	if a.adm != nil {
		shed := a.adm["shed_tenant_quota"] + a.adm["shed_overload"] + a.adm["shed_queue_depth"] -
			b.adm["shed_tenant_quota"] - b.adm["shed_overload"] - b.adm["shed_queue_depth"]
		admitted := a.adm["queries_admitted"] - b.adm["queries_admitted"]
		v.setRatio("server.shed_share", float64(shed), float64(shed+admitted))
		v.set("server.sessions", float64(a.sessions))
	}
	v.setRatio("proc.allocs_per_op", float64(a.mem.Mallocs-b.mem.Mallocs), ops)
	v.setRatio("proc.alloc_bytes_per_op", float64(a.mem.TotalAlloc-b.mem.TotalAlloc), ops)
	v.set("proc.gc_pause_ms", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e6)

	// Exact counts of the single-client pass.
	for name, x := range l.Counts {
		if strings.HasPrefix(name, "txn.") && workload != wlOLTPDurable {
			continue // no log in memory: nothing to count
		}
		v.set(name, x)
	}
	if l.SpaceAmp != nil {
		v.set("storage.space_amp", *l.SpaceAmp)
	}
	if l.WireBytesPerOp != nil {
		v.set("wire.bytes_per_op", *l.WireBytesPerOp)
		v.set("wire.codec_us_per_op", *l.CodecUsPerOp)
	} else {
		v.set("wire.bytes_per_op", 0) // embedded: no wire
	}

	// The ladder.
	sum := l.summary()
	kinds := ladderKinds[workload]
	put := func(name, rung string, self bool) {
		if x := flatLadder(sum, kinds, rung, self); x != nil {
			v.set(name, *x)
		}
	}
	put("client.call_us", rClient, false)
	if x := flatLadder(sum, kinds, rClient, true); x != nil && l.CodecUsPerOp != nil {
		v.set("server.self_us", *x-*l.CodecUsPerOp)
	}
	put("stagedb.self_us", rStagedb, true)
	put("core.queue_us", rStaged, true)
	put("sql.parse_us", rSQL, false)
	put("plan.bind_us", rPlan, false)
	put("engine.session_self_us", rSession, true)
	put("exec.staged_us", rExec, false)
	put("exec.volcano_us", rVolcano, false)
	if s, vo := flatLadder(sum, kinds, rExec, false), flatLadder(sum, kinds, rVolcano, false); s != nil && vo != nil {
		v.setRatio("exec.staged_over_volcano", *s, *vo)
	}
	var point, scan, commit []time.Duration
	for kind, d := range l.samples[rStorage] {
		if kind == kRead || kind == kInsert {
			point = append(point, d...)
		} else {
			scan = append(scan, d...)
		}
	}
	for _, d := range l.samples[rTxn] {
		commit = append(commit, d...)
	}
	for name, d := range map[string][]time.Duration{"storage.point_us": point, "storage.scan_us": scan, "txn.commit_us": commit} {
		if m, ok := percentile(sortedDurations(d), 50); ok {
			v.set(name, micros(m))
		}
	}
	if spill, mem := flatLadder(sum, kinds, rSession, false), flatLadder(sum, kinds, rSessionMem, false); spill != nil && mem != nil {
		v.setRatio("exec.spill_over_mem", *spill, *mem)
	}
	v.setRatio("trace.overhead_share", l.TracedS-l.UntracedS, l.TracedS)
	return v
}
