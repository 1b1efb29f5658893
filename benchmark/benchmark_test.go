package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func durations(n int) []time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = time.Duration(i+1) * time.Microsecond
	}
	return d
}

// A tail is reported only with ten samples beyond it; one the sample cannot
// support is null, never extrapolated.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	s := durations(100)
	if v, ok := percentile(s, 90); !ok || v != 90*time.Microsecond {
		t.Errorf("p90 of 100: got %v ok=%v, want 90µs supported (10 beyond)", v, ok)
	}
	if _, ok := percentile(s, 95); ok {
		t.Errorf("p95 of 100 has 5 samples beyond it and must be unsupported")
	}
	if v, ok := percentile(durations(1), 50); !ok || v != time.Microsecond {
		t.Errorf("the median needs one sample: got %v ok=%v", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Errorf("no samples, no median")
	}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{50, 0, false}, {100, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true}} {
		p, _, ok := highestSupported(durations(c.n))
		if ok != c.ok || p != c.want {
			t.Errorf("highestSupported(n=%d) = p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.want, c.ok)
		}
	}
	tm := summarize(durations(50))
	if tm.MedianUs == nil || tm.TailPct != nil || tm.TailUs != nil {
		t.Errorf("50 samples: want a median and a null tail, got %+v", tm)
	}
	b, _ := json.Marshal(tm)
	if !strings.Contains(string(b), `"tail_us":null`) {
		t.Errorf("unsupported tail must marshal as null: %s", b)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || medianFloat(xs) != 5.5 {
		t.Errorf("got q1=%v median=%v q3=%v, want 2.75 5.5 8.25", q1, medianFloat(xs), q3)
	}
}

// Self time is a rung's median minus the rungs beneath it, and the self
// times of a ladder sum to its top rung.
func TestSelfTimesTelescope(t *testing.T) {
	med := map[string]float64{rClient: 80, rStagedb: 30, rStaged: 25, rSession: 12, rSQL: 3, rPlan: 2, rExec: 4, rStorage: 1}
	self := selfTimes(med)
	want := map[string]float64{rClient: 50, rStagedb: 5, rStaged: 13, rSession: 3, rSQL: 3, rPlan: 2, rExec: 3, rStorage: 1}
	var sum float64
	for r, w := range want {
		if self[r] != w {
			t.Errorf("self[%s] = %v, want %v", r, self[r], w)
		}
		sum += self[r]
	}
	if len(self) != len(want) || sum != med[rClient] {
		t.Errorf("self times %v sum to %v, want the top rung's %v", self, sum, med[rClient])
	}

	// An embedded write: no client rung, no plan or exec; storage is charged
	// to the session through the absent exec rung, and txn sits beside it.
	med = map[string]float64{rStagedb: 900, rStaged: 880, rSession: 850, rSQL: 5, rStorage: 300, rTxn: 400}
	self = selfTimes(med)
	if self[rSession] != 850-5-300-400 {
		t.Errorf("session self = %v, want 145", self[rSession])
	}
	if _, ok := self[rClient]; ok {
		t.Errorf("an absent rung has no self time")
	}
	sum = 0
	for _, s := range self {
		sum += s
	}
	if sum != 900 {
		t.Errorf("self times sum to %v, want 900", sum)
	}
	// The alternative driver takes no part in the sums.
	med[rVolcano] = 999
	if got := selfTimes(med)[rSession]; got != 145 {
		t.Errorf("exec.volcano changed the session's self time to %v", got)
	}
}

func streamBytes(workload string, seed int64, client int) string {
	s := newOpStream(workload, fullSizes, seed, client, int64(client))
	var b strings.Builder
	for i := 0; i < 500; i++ {
		b.WriteString(s.next().encode())
	}
	return b.String()
}

// Same seed, byte-identical op stream per client; another seed or another
// client, another stream.
func TestStreamsAreDeterministic(t *testing.T) {
	for _, wl := range workloadNames {
		for client := 0; client < numClients; client++ {
			a, b := streamBytes(wl, 7, client), streamBytes(wl, 7, client)
			if a != b {
				t.Errorf("%s client %d: same seed gave different streams", wl, client)
			}
			if a == streamBytes(wl, 8, client) {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same stream", wl, client)
			}
		}
		if streamBytes(wl, 7, 0) == streamBytes(wl, 7, 1) {
			t.Errorf("%s: both clients got the same stream", wl)
		}
	}
}

func TestVerdicts(t *testing.T) {
	a := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, "lower", "ok"},
		{"slower latency", []float64{120, 121, 119, 120, 120}, "lower", "worse"},
		{"faster latency", []float64{80, 81, 79, 80, 80}, "lower", "ok"},
		{"lower throughput", []float64{80, 81, 79, 80, 80}, "higher", "worse"},
		{"noisy", []float64{60, 140, 100, 90, 120}, "lower", "unresolved"},
	} {
		if _, _, v := verdict(a, c.b, c.better, 0.10); v != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, v, c.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// BENCHMARK.json and the program name the same metrics, units, directions
// and workloads, in the same order.
func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d in the program", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %d chars), program has %q", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	seen := make(map[string]bool)
	check := func(kind string, declared []specMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d declared, %d in the program", kind, len(declared), len(defs))
		}
		for i, m := range declared {
			d := defs[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: declared %+v, program %+v", kind, i, m, d)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s name %q is malformed or repeated", kind, m.Name)
			}
			seen[m.Name] = true
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(spec.PerLayer))
	}
}

var metricLine = regexp.MustCompile(`^metric (\S+) (\S+) (\S+) (\S+)$`)

// The smoke mode runs every workload, traced and untraced, on tiny tables:
// every metric BENCHMARK.json names is printed exactly once with its unit,
// the results are correct, and the report ends with "claim": null.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads twice")
	}
	spec := loadSpec(t)
	out := t.TempDir()
	begin := time.Now()
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: wl, seed: 1, seconds: 1, trace: trace, smoke: true, outDir: out}
			rep, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %s", wl, trace, rep.Correct, rep.Attempted, rep.Failed, rep.FirstError)
			}
			declared := spec.EndToEnd
			if trace {
				declared = spec.PerLayer
			}
			var buf bytes.Buffer
			if err := printReport(&buf, rep, defsFor(trace)); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			printed := make(map[string]int)
			for _, ln := range lines {
				if m := metricLine.FindStringSubmatch(ln); m != nil {
					if m[1] != wl || m[4] == "" {
						t.Errorf("bad metric line %q", ln)
					}
					printed[m[2]+" "+m[4]]++
				}
			}
			for _, m := range declared {
				if n := printed[m.Name+" "+m.Unit]; n != 1 {
					t.Errorf("%s trace=%v: %s printed %d times with unit %s", wl, trace, m.Name, n, m.Unit)
				}
			}
			if len(printed) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", wl, trace, len(printed), len(declared))
			}
			var line struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			if len(line.Metrics) != len(declared) {
				t.Errorf("result line has %d metrics, %d declared", len(line.Metrics), len(declared))
			}
			for name, m := range line.Metrics {
				if m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
					t.Errorf("result line metric %s is not a number", name)
				}
				if !trace && *m.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasSuffix(b, []byte(`"claim":null}`)) {
				t.Errorf("report does not end with \"claim\": null")
			}
			if trace {
				checkSmokeLayers(t, wl, rep, out)
			}
		}
	}
	if d := time.Since(begin); d > time.Minute {
		t.Errorf("smoke took %s", d)
	}
}

// checkSmokeLayers holds the cross-workload predictions a traced run must
// meet at any size.
func checkSmokeLayers(t *testing.T, wl string, rep *report, out string) {
	t.Helper()
	val := func(name string) *float64 { return rep.Metrics[name].Value }
	if v := val("wire.bytes_per_op"); v == nil || (*v == 0) != (wl != wlPointReadWire) {
		t.Errorf("%s: wire.bytes_per_op = %s", wl, fmtPtr(v))
	}
	if v := val("exec.spill_bytes_per_op"); v == nil || (*v > 0) != (wl == wlAnalyticsSpil) {
		t.Errorf("%s: exec.spill_bytes_per_op = %s", wl, fmtPtr(v))
	}
	if v := val("txn.recover_s"); (v != nil) != (wl == wlOLTPDurable) {
		t.Errorf("%s: txn.recover_s = %s", wl, fmtPtr(v))
	}
	// Each ladder's self times sum to its top rung's median.
	for kind, rungs := range rep.Ladder {
		top, sum := 0.0, 0.0
		for _, r := range rungOrder {
			rs, ok := rungs[r]
			if !ok {
				continue
			}
			if top == 0 {
				top = rs.MedianUs
			}
			if rs.SelfUs != nil {
				sum += *rs.SelfUs
			}
		}
		if top == 0 || math.Abs(sum-top) > 0.1*top {
			t.Errorf("%s %s: self times sum to %.1f µs, top rung is %.1f µs", wl, kind, sum, top)
		}
	}
	b, err := os.ReadFile(filepath.Join(out, "trace-"+wl+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(b), "\n")
	if !strings.Contains(header, `"seed":1`) || !strings.Contains(header, `"go_version"`) {
		t.Errorf("%s: trace header lacks the seed or machine context: %s", wl, header)
	}
}
