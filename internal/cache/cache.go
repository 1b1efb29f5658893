// Package cache provides the simulated memory hierarchy that replaces the
// hardware performance counters of the paper's testbed.
//
// Two models are provided at two granularities:
//
//   - SetAssoc: a classic set-associative LRU cache over an abstract address
//     space, charged per access. The §3.1.3 parse-affinity experiment runs
//     the real SQL parser with its memory touches routed through this model.
//   - WorkingSet: the module-granularity model of the paper's Figure 4. A
//     module's common working set (shared code + data) either is or is not
//     resident; loading it costs l. Thread-private state is tracked the same
//     way. The Figure 1/2 CPU simulator and the Figure 5 queueing simulator
//     charge time through this model.
package cache

import (
	"fmt"
	"time"
)

// Addr is a byte address in the simulated address space.
type Addr uint64

// SetAssocConfig describes one cache level.
type SetAssocConfig struct {
	// SizeBytes is the total capacity. Must be LineBytes * Ways * Sets.
	SizeBytes int
	// LineBytes is the line (block) size; typically 64.
	LineBytes int
	// Ways is the associativity.
	Ways int
	// HitCost and MissCost are the charged latencies per access.
	HitCost  time.Duration
	MissCost time.Duration
}

// DefaultL2 models a 2003-era 512 KB 8-way L2 with 64 B lines, ~10 cycle hit
// and ~150 cycle miss at 1 GHz (1 cycle = 1 ns).
func DefaultL2() SetAssocConfig {
	return SetAssocConfig{
		SizeBytes: 512 << 10,
		LineBytes: 64,
		Ways:      8,
		HitCost:   10 * time.Nanosecond,
		MissCost:  150 * time.Nanosecond,
	}
}

// SetAssoc is a set-associative cache with true-LRU replacement per set.
type SetAssoc struct {
	cfg    SetAssocConfig
	sets   int
	lines  []line // sets * ways entries
	clock  uint64 // LRU stamp source
	hits   uint64
	misses uint64
}

type line struct {
	tag   uint64
	valid bool
	stamp uint64
}

// NewSetAssoc builds a cache from cfg. It panics on inconsistent geometry,
// which is a programming error in the experiment setup.
func NewSetAssoc(cfg SetAssocConfig) *SetAssoc {
	if cfg.LineBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	linesTotal := cfg.SizeBytes / cfg.LineBytes
	if linesTotal%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by %d ways", linesTotal, cfg.Ways))
	}
	sets := linesTotal / cfg.Ways
	if sets == 0 {
		panic("cache: zero sets")
	}
	return &SetAssoc{
		cfg:   cfg,
		sets:  sets,
		lines: make([]line, linesTotal),
	}
}

// Access touches one address and returns the charged latency. The boolean
// reports whether it hit.
func (c *SetAssoc) Access(a Addr) (time.Duration, bool) {
	block := uint64(a) / uint64(c.cfg.LineBytes)
	set := int(block % uint64(c.sets))
	tag := block / uint64(c.sets)
	base := set * c.cfg.Ways
	c.clock++

	victim := base
	oldest := c.lines[base].stamp
	for i := 0; i < c.cfg.Ways; i++ {
		ln := &c.lines[base+i]
		if ln.valid && ln.tag == tag {
			ln.stamp = c.clock
			c.hits++
			return c.cfg.HitCost, true
		}
		if !ln.valid {
			victim = base + i
			oldest = 0
			continue
		}
		if ln.stamp < oldest {
			oldest = ln.stamp
			victim = base + i
		}
	}
	c.lines[victim] = line{tag: tag, valid: true, stamp: c.clock}
	c.misses++
	return c.cfg.MissCost, false
}

// Touch accesses every line in [a, a+size).
func (c *SetAssoc) Touch(a Addr, size int) time.Duration {
	var total time.Duration
	lb := Addr(c.cfg.LineBytes)
	start := a / lb * lb
	for p := start; p < a+Addr(size); p += lb {
		d, _ := c.Access(p)
		total += d
	}
	return total
}

// Hits and Misses report access outcomes since construction or Reset.
func (c *SetAssoc) Hits() uint64   { return c.hits }
func (c *SetAssoc) Misses() uint64 { return c.misses }

// MissRatio returns misses / accesses, or 0 before any access.
func (c *SetAssoc) MissRatio() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}

// Reset invalidates all lines and clears the counters.
func (c *SetAssoc) Reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.hits, c.misses, c.clock = 0, 0, 0
}

// WorkingSet models the cache at the granularity of the paper's Figure 4:
// named working sets (a module's common code+data, or a thread's private
// state) compete for a fixed capacity under LRU. Loading a non-resident set
// costs its LoadTime; re-running while resident costs nothing extra.
type WorkingSet struct {
	capacity int64 // bytes
	used     int64
	clock    uint64
	resident map[string]*wsEntry
	loads    uint64
	reuses   uint64
}

type wsEntry struct {
	size  int64
	stamp uint64
}

// NewWorkingSet returns a model with the given capacity in bytes.
func NewWorkingSet(capacityBytes int64) *WorkingSet {
	if capacityBytes <= 0 {
		panic("cache: non-positive working-set capacity")
	}
	return &WorkingSet{
		capacity: capacityBytes,
		resident: make(map[string]*wsEntry),
	}
}

// Resident reports whether the named set is currently cached.
func (w *WorkingSet) Resident(name string) bool {
	_, ok := w.resident[name]
	return ok
}

// Touch brings the named working set of the given size into the cache,
// evicting least-recently-used sets as needed, and reports whether it was
// already resident (a reuse). Sets larger than the capacity are admitted
// alone (they evict everything and still count as a load each time they
// return after eviction).
func (w *WorkingSet) Touch(name string, size int64) (wasResident bool) {
	w.clock++
	if e, ok := w.resident[name]; ok {
		// A set can grow; account for the delta.
		if size > e.size {
			w.used += size - e.size
			e.size = size
			w.evictFor(name)
		}
		e.stamp = w.clock
		w.reuses++
		return true
	}
	w.resident[name] = &wsEntry{size: size, stamp: w.clock}
	w.used += size
	w.evictFor(name)
	w.loads++
	return false
}

// Evict removes the named set if resident (e.g., a module whose data
// structures were rewritten).
func (w *WorkingSet) Evict(name string) {
	if e, ok := w.resident[name]; ok {
		w.used -= e.size
		delete(w.resident, name)
	}
}

// evictFor evicts LRU entries other than keep until used <= capacity.
func (w *WorkingSet) evictFor(keep string) {
	for w.used > w.capacity {
		victim := ""
		var oldest uint64
		first := true
		for name, e := range w.resident {
			if name == keep {
				continue
			}
			if first || e.stamp < oldest {
				victim, oldest, first = name, e.stamp, false
			}
		}
		if victim == "" {
			return // only keep remains; oversized sets are admitted alone
		}
		w.used -= w.resident[victim].size
		delete(w.resident, victim)
	}
}

// Used returns the resident bytes (may exceed capacity only for a single
// oversized set).
func (w *WorkingSet) Used() int64 { return w.used }

// Loads and Reuses report how many Touch calls missed and hit, respectively.
func (w *WorkingSet) Loads() uint64  { return w.loads }
func (w *WorkingSet) Reuses() uint64 { return w.reuses }

// Reset empties the cache and clears counters.
func (w *WorkingSet) Reset() {
	w.resident = make(map[string]*wsEntry)
	w.used, w.clock, w.loads, w.reuses = 0, 0, 0, 0
}
