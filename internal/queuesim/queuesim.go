// Package queuesim implements the paper's production-line model (Figure 4)
// and the scheduling-policy study behind Figure 5, summarized from
// [HA02] "Affinity scheduling in staged server architectures".
//
// A single CPU serves queries that flow through N modules in order. Query
// service demand at module i is m_i; fetching module i's common data
// structures and code into the cache costs l_i, charged when the CPU enters
// the module with the cache holding a different module's set. Queries served
// back-to-back in the same module reuse the loaded set (the paper's central
// observation). Arrivals are Poisson; system load is defined as
// rho = lambda * (m + l), the utilization of a server that pays l in full
// for every query (the paper's default configuration).
//
// Policies (Figure 5):
//
//   - PS: time-shared round-robin over all queries in the system with a
//     small quantum — the paper's stand-in for the threaded DBMS. A query
//     pays l_i once per module visit (the model's analytic convention); with
//     RepayOnResume, it re-pays when other modules ran in between, which is
//     the more pessimistic eviction reading.
//   - FCFS: one query at a time, all modules to completion; l paid at every
//     module entry.
//   - Non-gated: the CPU parks at a module and serves its queue until empty
//     (late arrivals included), then advances to the next module.
//   - D-gated: as non-gated, but a gate closes when service at the module
//     begins: only queries already queued are served this visit.
//   - T-gated(k): gated, but up to k gate closures per module visit, which
//     bounds the extra waiting a nearly-complete batch can impose.
//
// [HA02] is not publicly available; the D-gated/T-gated definitions above
// are our reconstruction from the paper's §4.2 parameter space ("number of
// queries that form a batch ... the time they receive service ... module
// visiting order").
package queuesim

import (
	"fmt"
	"time"

	"stagedb/internal/metrics"
	"stagedb/internal/vclock"
)

// PolicyKind selects a scheduling policy.
type PolicyKind int

// The five policies of Figure 5.
const (
	PS PolicyKind = iota
	FCFS
	NonGated
	DGated
	TGated
)

// Policy is a policy kind plus its parameter (gate closures for TGated).
type Policy struct {
	Kind PolicyKind
	K    int // TGated: max gate closures per visit
}

// Name returns the paper's label for the policy.
func (p Policy) Name() string {
	switch p.Kind {
	case PS:
		return "PS"
	case FCFS:
		return "FCFS"
	case NonGated:
		return "non-gated"
	case DGated:
		return "D-gated"
	case TGated:
		return fmt.Sprintf("T-gated(%d)", p.K)
	}
	return fmt.Sprintf("Policy(%d)", int(p.Kind))
}

// Figure5Policies returns the policy set of Figure 5.
func Figure5Policies() []Policy {
	return []Policy{
		{Kind: TGated, K: 2},
		{Kind: DGated},
		{Kind: NonGated},
		{Kind: FCFS},
		{Kind: PS},
	}
}

// Config parameterizes one simulation run.
type Config struct {
	// Modules is N, the number of production-line stages (paper: 5).
	Modules int
	// TotalDemand is m+l per query (paper: 100 ms).
	TotalDemand time.Duration
	// LoadFraction is l/(m+l) in [0,1) (paper sweeps 0..0.6).
	LoadFraction float64
	// Rho is the offered load lambda*(m+l) (paper: 0.95).
	Rho float64
	// Quantum is the PS time slice (default 10 ms).
	Quantum time.Duration
	// RepayOnResume makes PS re-pay l_i when a module visit is resumed
	// after the CPU ran a different module (pessimistic eviction model).
	RepayOnResume bool
	// Jobs is the number of completions to measure after Warmup.
	Jobs int
	// Warmup completions are discarded.
	Warmup int
	// Seed drives arrivals.
	Seed uint64
	// MaxInSystem bounds the population so unstable configurations finish;
	// arrivals beyond the bound are dropped and counted. 0 means 10000.
	MaxInSystem int
}

// DefaultConfig returns the paper's Figure 5 setup at the given load
// fraction and offered load.
func DefaultConfig(loadFraction, rho float64) Config {
	return Config{
		Modules:      5,
		TotalDemand:  100 * time.Millisecond,
		LoadFraction: loadFraction,
		Rho:          rho,
		Quantum:      10 * time.Millisecond,
		Jobs:         20000,
		Warmup:       2000,
		Seed:         42,
	}
}

// Result summarizes one run.
type Result struct {
	Policy       Policy
	MeanResponse time.Duration
	P95Response  time.Duration
	Completed    int
	Dropped      int
	// LoadPaid is total l time charged; LoadIdeal is l per query paid once
	// per module with no reuse (the FCFS cost); their ratio shows reuse.
	LoadPaid  time.Duration
	BusyFrac  float64
	MeanBatch float64
}

type query struct {
	id       int
	arrived  vclock.Time
	modIdx   int
	remain   time.Duration
	paidLoad bool // l paid for the current module visit
}

type sim struct {
	cfg    Config
	policy Policy
	clk    *vclock.Clock
	rng    *vclock.RNG

	mi, li time.Duration // per-module service and load demand
	lambda float64       // arrivals per second

	queues  [][]*query // per-module FIFO (staged policies; also arrival point)
	rrList  []*query   // PS round-robin order
	rrIdx   int
	fcfsQ   []*query
	current int // staged: module the CPU is parked at
	gate    int // staged gated: remaining gated services this visit
	gatesCl int // staged gated: gate closures this visit
	lastMod int // module whose common set is cached; -1 initially
	busy    bool

	inSystem  int
	completed int
	dropped   int
	nextID    int

	resp       metrics.Histogram
	loadPaid   time.Duration
	busyTime   time.Duration
	batchSizes metrics.Mean
	batchRun   int // services since last module switch

	done bool
}

// Run simulates one policy under cfg and returns its result.
func Run(cfg Config, policy Policy) Result {
	if cfg.Modules <= 0 {
		cfg.Modules = 5
	}
	if cfg.TotalDemand <= 0 {
		cfg.TotalDemand = 100 * time.Millisecond
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 10 * time.Millisecond
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 10000
	}
	if cfg.MaxInSystem <= 0 {
		cfg.MaxInSystem = 10000
	}
	if policy.Kind == TGated && policy.K <= 0 {
		policy.K = 1
	}

	s := &sim{
		cfg:     cfg,
		policy:  policy,
		clk:     vclock.NewClock(),
		rng:     vclock.NewRNG(cfg.Seed),
		queues:  make([][]*query, cfg.Modules),
		current: 0,
		lastMod: -1,
	}
	n := time.Duration(cfg.Modules)
	l := time.Duration(float64(cfg.TotalDemand) * cfg.LoadFraction)
	s.li = l / n
	s.mi = (cfg.TotalDemand - l) / n
	s.lambda = cfg.Rho / cfg.TotalDemand.Seconds()

	s.scheduleArrival()
	for !s.done && s.clk.Step() {
	}

	elapsed := time.Duration(s.clk.Now())
	res := Result{
		Policy:       policy,
		MeanResponse: s.resp.Mean(),
		P95Response:  s.resp.Percentile(95),
		Completed:    s.resp.N(),
		Dropped:      s.dropped,
		LoadPaid:     s.loadPaid,
		MeanBatch:    s.batchSizes.Value(),
	}
	if elapsed > 0 {
		res.BusyFrac = float64(s.busyTime) / float64(elapsed)
	}
	return res
}

func (s *sim) scheduleArrival() {
	d := s.rng.Exp(time.Duration(float64(time.Second) / s.lambda))
	s.clk.Schedule(d, func() {
		if s.done {
			return
		}
		s.scheduleArrival()
		if s.inSystem >= s.cfg.MaxInSystem {
			s.dropped++
			return
		}
		q := &query{id: s.nextID, arrived: s.clk.Now(), remain: s.mi}
		s.nextID++
		s.inSystem++
		s.queues[0] = append(s.queues[0], q)
		if s.policy.Kind == PS {
			s.rrList = append(s.rrList, q)
		}
		if s.policy.Kind == FCFS {
			s.fcfsQ = append(s.fcfsQ, q)
		}
		s.maybeRun()
	})
}

// maybeRun dispatches the CPU if it is idle and work exists.
func (s *sim) maybeRun() {
	if s.busy || s.done {
		return
	}
	switch s.policy.Kind {
	case PS:
		s.runPS()
	case FCFS:
		s.runFCFS()
	default:
		s.runStaged()
	}
}

// charge computes the load charge for q entering service at its module and
// updates the cache-residency state. Under PS a query never reuses another
// query's module set: the paper's model states PS "fails to reuse cache
// contents, since it switches from query to query in a random way with
// respect to the query's current execution module" — the time-shared server
// interleaves enough unrelated work between two same-module slices that the
// set is gone.
func (s *sim) charge(q *query) time.Duration {
	reusable := s.policy.Kind != PS && s.lastMod == q.modIdx
	var c time.Duration
	switch {
	case !q.paidLoad && !reusable:
		c = s.li
		q.paidLoad = true
	case !q.paidLoad && reusable:
		// Common set already resident: reuse.
		q.paidLoad = true
	case q.paidLoad && s.cfg.RepayOnResume && s.lastMod != q.modIdx:
		c = s.li
	}
	s.lastMod = q.modIdx
	return c
}

// serve runs q for slice (plus any load charge), then invokes after.
func (s *sim) serve(q *query, slice time.Duration, after func(q *query)) {
	c := s.charge(q)
	s.loadPaid += c
	s.busy = true
	total := c + slice
	s.busyTime += total
	s.clk.Schedule(total, func() {
		s.busy = false
		q.remain -= slice
		after(q)
	})
}

// finishModule advances q past its current module; returns true if q left
// the system.
func (s *sim) finishModule(q *query) bool {
	q.modIdx++
	q.paidLoad = false
	if q.modIdx < s.cfg.Modules {
		q.remain = s.mi
		s.queues[q.modIdx] = append(s.queues[q.modIdx], q)
		return false
	}
	s.inSystem--
	s.completed++
	if s.completed > s.cfg.Warmup {
		s.resp.Observe(s.clk.Now().Sub(q.arrived))
	}
	if s.completed >= s.cfg.Warmup+s.cfg.Jobs {
		s.done = true
	}
	return true
}

func removeQuery(qs []*query, q *query) []*query {
	for i, x := range qs {
		if x == q {
			return append(qs[:i], qs[i+1:]...)
		}
	}
	return qs
}

// --- PS ---

func (s *sim) runPS() {
	if len(s.rrList) == 0 {
		return
	}
	if s.rrIdx >= len(s.rrList) {
		s.rrIdx = 0
	}
	q := s.rrList[s.rrIdx]
	slice := s.cfg.Quantum
	if q.remain < slice {
		slice = q.remain
	}
	s.serve(q, slice, func(q *query) {
		if q.remain <= 0 {
			s.queues[q.modIdx] = removeQuery(s.queues[q.modIdx], q)
			if s.finishModule(q) {
				s.rrList = removeQuery(s.rrList, q)
				// rrIdx now points at the next query already.
			} else {
				s.rrIdx++
			}
		} else {
			s.rrIdx++
		}
		s.maybeRun()
	})
}

// --- FCFS ---

func (s *sim) runFCFS() {
	if len(s.fcfsQ) == 0 {
		return
	}
	q := s.fcfsQ[0]
	s.serve(q, q.remain, func(q *query) {
		s.queues[q.modIdx] = removeQuery(s.queues[q.modIdx], q)
		if s.finishModule(q) {
			s.fcfsQ = s.fcfsQ[1:]
		}
		s.maybeRun()
	})
}

// --- staged (non-gated, D-gated, T-gated) ---

func (s *sim) runStaged() {
	// Find work starting at the current module.
	for i := 0; i < s.cfg.Modules; i++ {
		mod := (s.current + i) % s.cfg.Modules
		if len(s.queues[mod]) == 0 {
			continue
		}
		if mod != s.current || s.gate == 0 {
			// Arriving at a (possibly new) module: close a gate.
			if mod != s.current {
				s.reportBatch()
				s.current = mod
				s.gatesCl = 0
			}
			switch s.policy.Kind {
			case NonGated:
				s.gate = -1 // unlimited this visit
			case DGated, TGated:
				if s.gatesCl >= s.maxGates() {
					// Visit exhausted; move on next iteration.
					s.reportBatch()
					s.current = (mod + 1) % s.cfg.Modules
					continue
				}
				s.gate = len(s.queues[mod])
				s.gatesCl++
			}
		}
		q := s.queues[mod][0]
		s.serveStaged(q)
		return
	}
	// All queues empty: CPU idles; next arrival re-dispatches.
	s.reportBatch()
}

func (s *sim) maxGates() int {
	if s.policy.Kind == DGated {
		return 1
	}
	return s.policy.K
}

func (s *sim) serveStaged(q *query) {
	s.serve(q, q.remain, func(q *query) {
		s.queues[q.modIdx] = removeQuery(s.queues[q.modIdx], q)
		s.finishModule(q)
		s.batchRun++
		if s.gate > 0 {
			s.gate--
			if s.gate == 0 && (s.policy.Kind == DGated || s.gatesCl >= s.policy.K) {
				// Visit over: advance to the next module.
				s.reportBatch()
				s.current = (s.current + 1) % s.cfg.Modules
				s.gatesCl = 0
			}
		}
		if s.policy.Kind == NonGated && len(s.queues[s.current]) == 0 {
			s.reportBatch()
			s.current = (s.current + 1) % s.cfg.Modules
			s.gate = 0
		}
		s.maybeRun()
	})
}

func (s *sim) reportBatch() {
	if s.batchRun > 0 {
		s.batchSizes.Observe(float64(s.batchRun))
		s.batchRun = 0
	}
}
