package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Workload names, in the order the harness runs them.
const (
	wlPointReadWire = "point_read_wire"
	wlOLTPDurable   = "oltp_mixed_durable"
	wlAnalyticsMem  = "analytics_mem"
	wlAnalyticsSpil = "analytics_spill"
)

var workloadNames = []string{wlPointReadWire, wlOLTPDurable, wlAnalyticsMem, wlAnalyticsSpil}

// numClients is fixed at the sandbox's core count: a closed loop with one
// caller per core, server and clients in one process.
const numClients = 2

// Op kinds. Every workload draws from its own subset.
const (
	kRead   = "read"
	kUpdate = "update"
	kInsert = "insert"
	kAgg    = "agg"
	kJoin   = "join"
	kStream = "stream"
	kSort   = "sort"
	kGroupK = "groupk"
	kJoinK  = "joink"
)

// workloadKinds lists each workload's op kinds.
var workloadKinds = map[string][]string{
	wlPointReadWire: {kRead},
	wlOLTPDurable:   {kRead, kUpdate, kInsert},
	wlAnalyticsMem:  {kAgg, kJoin, kStream},
	wlAnalyticsSpil: {kSort, kGroupK, kJoinK},
}

// gatedKinds are the kinds pooled into op_p50_ms: the class the workload
// exists to measure.
var gatedKinds = map[string][]string{
	wlPointReadWire: {kRead},
	wlOLTPDurable:   {kUpdate, kInsert},
	wlAnalyticsMem:  {kAgg, kJoin, kStream},
	wlAnalyticsSpil: {kSort, kGroupK, kJoinK},
}

// ladderKinds are the kinds each workload's flat ladder metrics average over
// (the per-kind ladders are all in the JSON output).
var ladderKinds = map[string][]string{
	wlPointReadWire: {kRead},
	wlOLTPDurable:   {kRead},
	wlAnalyticsMem:  {kAgg, kJoin, kStream},
	wlAnalyticsSpil: {kSort, kGroupK, kJoinK},
}

// SQL texts. One text per kind, so the server sees a small fixed statement
// vocabulary and all variation rides in the arguments.
const (
	sqlRead   = "SELECT bal FROM acct WHERE id = ?"
	sqlUpdate = "UPDATE acct SET bal = bal + ? WHERE id = ?"
	sqlInsert = "INSERT INTO hist VALUES (?, ?, ?)"
	sqlAgg    = "SELECT grp, COUNT(*), SUM(val) FROM fact WHERE val > ? GROUP BY grp"
	sqlJoin   = "SELECT d.name, COUNT(*), SUM(f.val) FROM fact f JOIN dim d ON f.grp = d.grp WHERE f.val > ? GROUP BY d.name"
	sqlStream = "SELECT id, val FROM fact WHERE val < ?"
	sqlSort   = "SELECT id, val FROM fact WHERE val >= ? ORDER BY val, id"
	sqlGroupK = "SELECT k, COUNT(*), SUM(val) FROM fact WHERE val >= ? GROUP BY k"
	sqlJoinK  = "SELECT COUNT(*), SUM(w.w) FROM fact f JOIN keys w ON f.k = w.k WHERE f.val >= ?"
)

// sizes are the table cardinalities. The full sizes are the benchmark; the
// smoke sizes only prove the plumbing.
type sizes struct {
	Acct int `json:"acct_rows"`
	Fact int `json:"fact_rows"`
	Keys int `json:"keys_rows"`
	Grps int `json:"grp_values"`
	// SpillWorkMem is analytics_spill's WorkMem: small enough that every one
	// of its shapes exceeds it at these cardinalities.
	SpillWorkMem int `json:"spill_work_mem"`
}

var (
	fullSizes  = sizes{Acct: 20000, Fact: 200000, Keys: 50000, Grps: 64, SpillWorkMem: 1 << 20}
	smokeSizes = sizes{Acct: 400, Fact: 12800, Keys: 3200, Grps: 64, SpillWorkMem: 64 << 10}
)

const (
	acctPadLen = 100
	factPadLen = 64
	valMod     = 1000003
)

// The column functions: every stored value is a fixed function of its row id,
// so the loader is the oracle.
func balOf(id int) int64         { return 1000 + int64(id*37%9973) }
func valOf(id int) int64         { return int64(uint64(id) * 2654435761 % valMod) }
func grpOf(id int, sz sizes) int { return id % sz.Grps }
func kOf(id int, sz sizes) int   { return int(uint64(id) * 7919 % uint64(sz.Keys)) }
func wOf(k int) int64            { return int64(k)*3 + 1 }
func dimName(g int) string       { return fmt.Sprintf("g%02d", g) }

// aggThresholds is the argument vocabulary of the grouped shapes: few enough
// that the oracle precomputes every per-group answer outside the measured
// window. The other shapes take any threshold in their range; the oracle
// answers those from prefix sums.
var aggThresholds = []int64{100000, 250000, 400000, 550000, 700000, 850000}

const (
	// streamLo..streamHi keeps the stream shape about 1% selective.
	streamLo, streamHi = 9000, 11000
	// spillCut bounds the rows a spill shape's filter drops (under 0.1%), so
	// the argument varies with the seed and every shape still exceeds WorkMem.
	spillCut = 1000
)

// op is one generated operation: the only thing the program under test sees
// is SQL and Args.
type op struct {
	Kind string
	SQL  string
	Args []int64
}

// encode renders the op as one line; the determinism test compares streams
// by these bytes.
func (o op) encode() string {
	var b strings.Builder
	b.WriteString(o.Kind)
	b.WriteByte('|')
	b.WriteString(o.SQL)
	for _, a := range o.Args {
		fmt.Fprintf(&b, "|%d", a)
	}
	b.WriteByte('\n')
	return b.String()
}

func (o op) anyArgs() []any {
	out := make([]any, len(o.Args))
	for i, a := range o.Args {
		out[i] = a
	}
	return out
}

// opStream is one client's deterministic op sequence: a function of
// (workload, seed, client) only. stripe namespaces the keys of inserted rows
// so two streams never collide and a ladder rung replaying client 0's stream
// writes fresh keys instead of re-applying the ones before it.
type opStream struct {
	workload string
	sz       sizes
	client   int
	stripe   int64
	rng      *rand.Rand
	seq      int64
}

func newOpStream(workload string, sz sizes, seed int64, client int, stripe int64) *opStream {
	var wl int64
	for i, n := range workloadNames {
		if n == workload {
			wl = int64(i + 1)
		}
	}
	src := rand.NewSource(seed*1000003 + wl*1009 + int64(client)*101 + 7)
	return &opStream{workload: workload, sz: sz, client: client, stripe: stripe, rng: rand.New(src)}
}

// ownID draws an acct id from this client's stripe (id mod numClients ==
// client): writers never touch each other's rows, so no operation fails.
func (s *opStream) ownID() int64 {
	return int64(s.rng.Intn(s.sz.Acct/numClients)*numClients + s.client)
}

func (s *opStream) next() op {
	n := s.seq
	s.seq++
	switch s.workload {
	case wlPointReadWire:
		return op{Kind: kRead, SQL: sqlRead, Args: []int64{int64(s.rng.Intn(s.sz.Acct))}}
	case wlOLTPDurable:
		switch r := s.rng.Intn(100); {
		case r < 50:
			return op{Kind: kRead, SQL: sqlRead, Args: []int64{int64(s.rng.Intn(s.sz.Acct))}}
		case r < 80:
			id := s.ownID()
			return op{Kind: kUpdate, SQL: sqlUpdate, Args: []int64{int64(1 + s.rng.Intn(9)), id}}
		default:
			id := s.ownID()
			return op{Kind: kInsert, SQL: sqlInsert, Args: []int64{s.stripe<<32 | n, id, int64(1 + s.rng.Intn(9))}}
		}
	case wlAnalyticsMem:
		// Cycle the shapes from a per-client offset so the two clients are
		// never forced into lockstep on the same shape.
		switch (n + int64(s.client)) % 3 {
		case 0:
			return op{Kind: kAgg, SQL: sqlAgg, Args: []int64{aggThresholds[s.rng.Intn(len(aggThresholds))]}}
		case 1:
			return op{Kind: kJoin, SQL: sqlJoin, Args: []int64{aggThresholds[s.rng.Intn(len(aggThresholds))]}}
		default:
			return op{Kind: kStream, SQL: sqlStream, Args: []int64{streamLo + int64(s.rng.Intn(streamHi-streamLo))}}
		}
	case wlAnalyticsSpil:
		cut := []int64{int64(s.rng.Intn(spillCut))}
		switch (n + int64(s.client)) % 3 {
		case 0:
			return op{Kind: kSort, SQL: sqlSort, Args: cut}
		case 1:
			return op{Kind: kGroupK, SQL: sqlGroupK, Args: cut}
		default:
			return op{Kind: kJoinK, SQL: sqlJoinK, Args: cut}
		}
	}
	panic("benchmark: unknown workload " + s.workload)
}

// firstOps returns the first n ops of a fresh stream, for the ladder.
func firstOps(workload string, sz sizes, seed int64, stripe int64, n int) []op {
	s := newOpStream(workload, sz, seed, 0, stripe)
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}
