// Package cpusim simulates the CPU of the paper's testbed: threads with
// explicit context-switch costs, a working-set cache model, quantum-based or
// cooperative scheduling, and optional disk I/O.
//
// It replaces the real scheduler+cache of the paper's 1 GHz Pentium III: Go
// cannot control which goroutine runs next or observe cache misses, so the
// experiments of Figures 1 and 2 run here on virtual time. A thread
// executes a job, which is a sequence of segments; each
// segment names a module (parser, optimizer, a relational operator...),
// burns private CPU time, and may end with a disk I/O.
//
// Time is charged per the paper's Figure 4 model:
//
//   - switching threads costs Machine.CtxSwitch;
//   - entering a module whose common working set is not cache-resident costs
//     size/MemBandwidth (the quantity l);
//   - resuming a thread whose private working set was evicted costs its
//     size/MemBandwidth (the "load query state" box of Figure 1);
//   - the segment's own CPU demand (the quantity m) is charged always.
package cpusim

import (
	"fmt"
	"time"

	"stagedb/internal/cache"
	"stagedb/internal/disk"
	"stagedb/internal/vclock"
)

// Module is a named server module with a common (shared across queries)
// working set, e.g. the parser's code plus symbol table.
type Module struct {
	Name        string
	CommonBytes int64
}

// Segment is one module visit by a job: CPU demand plus an optional trailing
// disk read of IOBytes.
type Segment struct {
	Module  *Module
	CPU     time.Duration
	IOBytes int64
}

// Job is one query: an ordered list of module visits and the size of the
// query's private state (the packet "backpack" of §4.1.1).
type Job struct {
	ID           int
	Segments     []Segment
	PrivateBytes int64

	submitted vclock.Time
	done      bool
	finished  vclock.Time
}

// Done reports whether the job has completed all segments.
func (j *Job) Done() bool { return j.done }

// ResponseTime returns completion minus submission time (0 until done).
func (j *Job) ResponseTime() time.Duration {
	if !j.done {
		return 0
	}
	return j.finished.Sub(j.submitted)
}

// ThreadState enumerates scheduler-visible thread states.
type ThreadState int

// Thread lifecycle states.
const (
	Idle      ThreadState = iota // no job assigned
	Ready                        // runnable, waiting for the CPU
	Running                      // executing on the CPU
	BlockedIO                    // waiting for a disk completion
	Finished                     // worker exited (no jobs remain)
)

func (s ThreadState) String() string {
	switch s {
	case Idle:
		return "idle"
	case Ready:
		return "ready"
	case Running:
		return "running"
	case BlockedIO:
		return "blocked-io"
	case Finished:
		return "finished"
	}
	return fmt.Sprintf("ThreadState(%d)", int(s))
}

// Thread is a simulated worker thread.
type Thread struct {
	ID    int
	state ThreadState

	job     *Job
	segIdx  int
	cpuLeft time.Duration
}

// State returns the thread's current state.
func (t *Thread) State() ThreadState { return t.state }

// CurrentModule returns the module of the segment the thread is positioned
// at, or nil when it has no job.
func (t *Thread) CurrentModule() *Module {
	if t.job == nil || t.segIdx >= len(t.job.Segments) {
		return nil
	}
	return t.job.Segments[t.segIdx].Module
}

// SpanKind labels trace spans for the Figure 1 rendering.
type SpanKind int

// Span kinds: context-switch overhead, private-state reload, module common
// working-set load, useful execution, and I/O wait.
const (
	SpanCtxSwitch SpanKind = iota
	SpanLoadPrivate
	SpanLoadModule
	SpanExec
	SpanIO
)

func (k SpanKind) String() string {
	switch k {
	case SpanCtxSwitch:
		return "ctx-switch"
	case SpanLoadPrivate:
		return "load-private"
	case SpanLoadModule:
		return "load-module"
	case SpanExec:
		return "exec"
	case SpanIO:
		return "io"
	}
	return fmt.Sprintf("SpanKind(%d)", int(k))
}

// Span is one traced interval of CPU (or disk) activity.
type Span struct {
	From, To vclock.Time
	Thread   int
	Job      int
	Kind     SpanKind
	Module   string
}

// Policy decides which ready thread runs next and for how long.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Pick selects a thread from ready (non-empty) given the module that
	// last ran on the CPU. It returns an index into ready.
	Pick(ready []*Thread, lastModule string) int
	// Quantum returns the preemption quantum; 0 means run to the end of the
	// current segment (cooperative yield at operation boundaries, §5.1).
	Quantum() time.Duration
}

// RoundRobin is the baseline preemptive time-sharing policy of §3.1: FIFO
// pick, fixed quantum, preemption oblivious to operation boundaries.
type RoundRobin struct{ Q time.Duration }

// Name implements Policy.
func (p RoundRobin) Name() string { return fmt.Sprintf("round-robin(%v)", p.Q) }

// Pick implements Policy (FIFO).
func (p RoundRobin) Pick(ready []*Thread, _ string) int { return 0 }

// Quantum implements Policy.
func (p RoundRobin) Quantum() time.Duration { return p.Q }

// Cooperative yields only at operation (segment) boundaries, fixing
// shortcoming 2 of §3.1 but not 3: the pick is still FIFO.
type Cooperative struct{}

// Name implements Policy.
func (Cooperative) Name() string { return "cooperative" }

// Pick implements Policy (FIFO).
func (Cooperative) Pick(ready []*Thread, _ string) int { return 0 }

// Quantum implements Policy (run to segment end).
func (Cooperative) Quantum() time.Duration { return 0 }

// Affinity is the staged policy of §5.1: cooperative yield plus a pick that
// prefers a thread whose next segment runs in the module already loaded in
// the cache, exploiting stage affinity.
type Affinity struct{}

// Name implements Policy.
func (Affinity) Name() string { return "stage-affinity" }

// Pick implements Policy: first ready thread in the cached module, else FIFO.
func (Affinity) Pick(ready []*Thread, lastModule string) int {
	if lastModule != "" {
		for i, t := range ready {
			if m := t.CurrentModule(); m != nil && m.Name == lastModule {
				return i
			}
		}
	}
	return 0
}

// Quantum implements Policy (run to segment end).
func (Affinity) Quantum() time.Duration { return 0 }

// Config parameterizes a Machine.
type Config struct {
	// CtxSwitch is the fixed thread context-switch cost.
	CtxSwitch time.Duration
	// CacheBytes is the capacity of the working-set cache model.
	CacheBytes int64
	// MemBandwidth is the fill rate for working-set loads (bytes/second).
	MemBandwidth int64
	// Disk, when non-nil, services Segment.IOBytes reads.
	Disk *disk.Disk
	// ColdSlowdown stretches a CPU slice that starts with its private
	// working set evicted: the thread misses throughout the slice, not just
	// during an up-front reload. 1 (or 0) disables the effect; 1.4 means a
	// cold slice takes 40% longer, charged as overhead.
	ColdSlowdown float64
	// Trace enables span recording (Figure 1). Off for throughput runs.
	Trace bool
}

// Default2003 approximates the paper's 1 GHz P-III: ~5 µs context switch,
// 512 KB L2, ~1 GB/s fill bandwidth.
func Default2003() Config {
	return Config{
		CtxSwitch:    5 * time.Microsecond,
		CacheBytes:   512 << 10,
		MemBandwidth: 1 << 30,
	}
}

// Machine is a single simulated CPU running a set of threads under a Policy.
type Machine struct {
	clk    *vclock.Clock
	cfg    Config
	policy Policy
	cache  *cache.WorkingSet

	threads    []*Thread
	ready      []*Thread
	running    *Thread
	lastThr    *Thread
	lastMod    string
	inputQueue []*Job // jobs waiting for an idle worker
	completed  []*Job
	spans      []Span

	busy     time.Duration
	overhead time.Duration
}

// NewMachine builds a machine on clk with the given policy.
func NewMachine(clk *vclock.Clock, cfg Config, policy Policy) *Machine {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 512 << 10
	}
	if cfg.MemBandwidth <= 0 {
		cfg.MemBandwidth = 1 << 30
	}
	return &Machine{
		clk:    clk,
		cfg:    cfg,
		policy: policy,
		cache:  cache.NewWorkingSet(cfg.CacheBytes),
	}
}

// AddWorkers creates n worker threads that pull jobs from the input queue.
func (m *Machine) AddWorkers(n int) {
	for i := 0; i < n; i++ {
		t := &Thread{ID: len(m.threads), state: Idle}
		m.threads = append(m.threads, t)
	}
}

// Submit appends jobs to the input queue and wakes idle workers.
func (m *Machine) Submit(jobs ...*Job) {
	for _, j := range jobs {
		j.submitted = m.clk.Now()
		m.inputQueue = append(m.inputQueue, j)
	}
	m.assignIdle()
	m.dispatch()
}

func (m *Machine) assignIdle() {
	for _, t := range m.threads {
		if len(m.inputQueue) == 0 {
			return
		}
		if t.state == Idle {
			t.job = m.inputQueue[0]
			m.inputQueue = m.inputQueue[1:]
			t.segIdx = 0
			t.cpuLeft = t.job.Segments[0].CPU
			m.makeReady(t)
		}
	}
}

func (m *Machine) makeReady(t *Thread) {
	t.state = Ready
	m.ready = append(m.ready, t)
}

// dispatch starts the next thread if the CPU is free.
func (m *Machine) dispatch() {
	if m.running != nil || len(m.ready) == 0 {
		return
	}
	idx := m.policy.Pick(m.ready, m.lastMod)
	t := m.ready[idx]
	m.ready = append(m.ready[:idx], m.ready[idx+1:]...)
	t.state = Running
	m.running = t

	start := m.clk.Now()
	var over time.Duration

	// Context-switch cost when a different thread takes the CPU.
	if m.lastThr != nil && m.lastThr != t && m.cfg.CtxSwitch > 0 {
		m.span(Span{From: start.Add(over), To: start.Add(over + m.cfg.CtxSwitch),
			Thread: t.ID, Job: t.job.ID, Kind: SpanCtxSwitch})
		over += m.cfg.CtxSwitch
	}
	// Reload the thread's private working set if evicted.
	cold := false
	if t.job.PrivateBytes > 0 {
		key := fmt.Sprintf("thr:%d", t.ID)
		if !m.cache.Touch(key, t.job.PrivateBytes) {
			cold = true
			d := m.loadTime(t.job.PrivateBytes)
			m.span(Span{From: start.Add(over), To: start.Add(over + d),
				Thread: t.ID, Job: t.job.ID, Kind: SpanLoadPrivate})
			over += d
		}
	}
	// Load the module's common working set if evicted.
	mod := t.CurrentModule()
	if mod != nil && mod.CommonBytes > 0 {
		if !m.cache.Touch("mod:"+mod.Name, mod.CommonBytes) {
			d := m.loadTime(mod.CommonBytes)
			m.span(Span{From: start.Add(over), To: start.Add(over + d),
				Thread: t.ID, Job: t.job.ID, Kind: SpanLoadModule, Module: mod.Name})
			over += d
		}
		m.lastMod = mod.Name
	}
	m.lastThr = t

	run := t.cpuLeft
	q := m.policy.Quantum()
	preempt := q > 0 && q < run
	if preempt {
		run = q
	}
	// A cold slice executes at memory speed: stretch it and charge the
	// stretch as overhead.
	var stretch time.Duration
	if cold && m.cfg.ColdSlowdown > 1 {
		stretch = time.Duration(float64(run) * (m.cfg.ColdSlowdown - 1))
	}
	m.overhead += over + stretch
	m.busy += run
	if m.cfg.Trace {
		m.spans = append(m.spans, Span{
			From: start.Add(over), To: start.Add(over + run + stretch),
			Thread: t.ID, Job: t.job.ID, Kind: SpanExec, Module: modName(mod),
		})
	}
	m.clk.Schedule(over+run+stretch, func() { m.onSlice(t, run, preempt) })
}

func modName(m *Module) string {
	if m == nil {
		return ""
	}
	return m.Name
}

// span records one trace interval when tracing is enabled.
func (m *Machine) span(s Span) {
	if m.cfg.Trace {
		m.spans = append(m.spans, s)
	}
}

func (m *Machine) loadTime(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / float64(m.cfg.MemBandwidth) * float64(time.Second))
}

// onSlice handles the end of a CPU slice for thread t.
func (m *Machine) onSlice(t *Thread, ran time.Duration, preempted bool) {
	m.running = nil
	t.cpuLeft -= ran
	if preempted && t.cpuLeft > 0 {
		// Preemption mid-operation: back of the ready queue; its working set
		// decays in the cache as others run (shortcoming 2 of §3.1).
		m.makeReady(t)
		m.dispatch()
		return
	}
	// Segment CPU demand complete.
	seg := t.job.Segments[t.segIdx]
	if seg.IOBytes > 0 && m.cfg.Disk != nil {
		t.state = BlockedIO
		ioStart := m.clk.Now()
		m.cfg.Disk.Read(seg.IOBytes, func() {
			if m.cfg.Trace {
				m.spans = append(m.spans, Span{
					From: ioStart, To: m.clk.Now(),
					Thread: t.ID, Job: t.job.ID, Kind: SpanIO, Module: modName(seg.Module),
				})
			}
			m.advance(t)
			m.dispatch()
		})
		m.dispatch()
		return
	}
	m.advance(t)
	m.dispatch()
}

// advance moves t past its current segment: next segment, next job, or idle.
func (m *Machine) advance(t *Thread) {
	t.segIdx++
	if t.segIdx < len(t.job.Segments) {
		t.cpuLeft = t.job.Segments[t.segIdx].CPU
		m.makeReady(t)
		return
	}
	// Job complete.
	t.job.done = true
	t.job.finished = m.clk.Now()
	m.completed = append(m.completed, t.job)
	m.cache.Evict(fmt.Sprintf("thr:%d", t.ID))
	t.job = nil
	t.state = Idle
	m.assignIdle()
}

// Completed returns the finished jobs in completion order.
func (m *Machine) Completed() []*Job { return m.completed }

// Spans returns the recorded trace (empty unless Config.Trace).
func (m *Machine) Spans() []Span { return m.spans }

// BusyTime returns time spent on useful segment execution.
func (m *Machine) BusyTime() time.Duration { return m.busy }

// OverheadTime returns time spent on context switches and working-set loads.
func (m *Machine) OverheadTime() time.Duration { return m.overhead }

// CacheLoads reports working-set loads (misses) charged so far.
func (m *Machine) CacheLoads() uint64 { return m.cache.Loads() }

// CacheReuses reports working-set reuses (hits) so far.
func (m *Machine) CacheReuses() uint64 { return m.cache.Reuses() }
