// Package metrics provides the measurement primitives used by both the
// simulators and the live engine: named counter sets, running means,
// response-time histograms with percentile queries, and per-stage
// utilization tracking.
//
// The paper argues (§5.2) that a staged design makes the system easy to
// monitor because every stage exposes its own queue length, utilization, and
// service-time statistics; StageSnapshot is what such a monitor reports.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// CounterSet is a named collection of counters, safe for concurrent use. It
// backs pseudo-stages whose counter vocabulary grows at runtime (the network
// server's admission stage records accepts, sheds, and per-reason rejects as
// they first occur).
type CounterSet struct {
	mu sync.Mutex
	m  map[string]int64
}

// Inc adds one to the named counter, creating it at zero first.
func (c *CounterSet) Inc(name string) { c.Add(name, 1) }

// Add adds delta to the named counter, creating it at zero first.
func (c *CounterSet) Add(name string, delta int64) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]int64)
	}
	c.m[name] += delta
	c.mu.Unlock()
}

// Value returns the named counter's current count (0 if never touched).
func (c *CounterSet) Value(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot copies the current counters; nil when none were ever touched.
func (c *CounterSet) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		return nil
	}
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Mean accumulates a running mean and variance (Welford's algorithm).
type Mean struct {
	mu    sync.Mutex
	n     int64
	mean  float64
	m2    float64
	min   float64
	max   float64
	first bool
}

// Observe folds one sample into the accumulator.
func (m *Mean) Observe(x float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.first {
		m.min, m.max, m.first = x, x, true
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// N returns the number of samples observed.
func (m *Mean) N() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// Value returns the sample mean, or 0 with no samples.
func (m *Mean) Value() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mean
}

// Stddev returns the sample standard deviation, or 0 with fewer than two
// samples.
func (m *Mean) Stddev() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n < 2 {
		return 0
	}
	return math.Sqrt(m.m2 / float64(m.n-1))
}

// Min returns the smallest observed sample, or 0 with no samples.
func (m *Mean) Min() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.min
}

// Max returns the largest observed sample, or 0 with no samples.
func (m *Mean) Max() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.max
}

// Histogram records duration samples and answers percentile queries. It keeps
// raw samples: the simulator experiments observe at most a few hundred
// thousand, so exactness is worth the memory there. A live engine's
// always-on monitors (a StagePool stage's) must not use it.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	h.samples = append(h.samples, d)
	h.sorted = false
	h.mu.Unlock()
}

// N returns the number of samples recorded.
func (h *Histogram) N() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Mean returns the sample mean, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range h.samples {
		sum += s
	}
	return sum / time.Duration(len(h.samples))
}

// Percentile returns the p-th percentile (p in [0,100]) using nearest-rank,
// or 0 with no samples.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return h.samples[rank-1]
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() time.Duration { return h.Percentile(100) }

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.samples = h.samples[:0]
	h.sorted = false
	h.mu.Unlock()
}

// StageSnapshot is an immutable view of one stage's counters.
type StageSnapshot struct {
	Name        string
	Enqueued    int64
	Dequeued    int64
	Serviced    int
	Busy        time.Duration
	MeanService time.Duration
	QueueLen    int
	MaxQueue    int
	// Workers is the stage's worker count, filled in by the owning
	// scheduler (0 when the scheduler does not track it).
	Workers int
	// Counters carries stage-specific named counters beyond the common set
	// (e.g. the fscan stage's scan-share hit/attach/wrap counts); nil for
	// stages without extras.
	Counters map[string]int64
}

// Utilization reports busy time as a fraction of elapsed.
func (s StageSnapshot) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(s.Busy) / float64(elapsed)
}

// Table renders rows as a fixed-width text table with the given header. It is
// the output format of cmd/figures, mirroring the paper's tables.
func Table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
