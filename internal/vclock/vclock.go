// Package vclock provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event heap, and seeded random-number streams.
//
// All timing experiments in this repository (Figures 1, 2 and 5 of the paper)
// run on virtual time so that results are reproducible and independent of the
// Go runtime scheduler, which cannot be controlled precisely enough to
// reproduce the paper's explicit stage/CPU scheduling.
package vclock

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time. The zero value is the simulation start.
type Time int64

// Duration is a span of virtual time, in the same unit as Time
// (nanoseconds, matching time.Duration for easy conversion).
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as seconds of virtual time since the start.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats the time as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback. Events fire in timestamp order; ties break
// by scheduling order (FIFO), which keeps simulations deterministic.
type Event struct {
	at   Time
	seq  uint64
	fn   func()
	idx  int // heap index; -1 once fired or cancelled
	dead bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.dead = true
	}
}

// Cancelled reports whether Cancel was called before the event fired.
func (e *Event) Cancelled() bool { return e.dead }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// Clock is a virtual clock with an event queue. The zero value is not usable;
// create clocks with NewClock.
type Clock struct {
	now    Time
	seq    uint64
	events eventHeap
	fired  uint64
}

// NewClock returns a clock positioned at time zero with no pending events.
func NewClock() *Clock {
	return &Clock{}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Fired reports how many events have fired so far, which is useful for
// asserting progress in tests.
func (c *Clock) Fired() uint64 { return c.fired }

// Pending reports the number of scheduled (not yet fired or cancelled) events.
func (c *Clock) Pending() int {
	n := 0
	for _, e := range c.events {
		if !e.dead {
			n++
		}
	}
	return n
}

// Schedule arranges for fn to run at now+d. A negative d panics: simulated
// causes cannot precede their effects.
func (c *Clock) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("vclock: schedule in the past (d=%v)", d))
	}
	return c.ScheduleAt(c.now.Add(d), fn)
}

// ScheduleAt arranges for fn to run at the absolute virtual time at.
func (c *Clock) ScheduleAt(at Time, fn func()) *Event {
	if at < c.now {
		panic(fmt.Sprintf("vclock: schedule in the past (at=%v now=%v)", at, c.now))
	}
	e := &Event{at: at, seq: c.seq, fn: fn}
	c.seq++
	heap.Push(&c.events, e)
	return e
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports false when no events remain.
func (c *Clock) Step() bool {
	for len(c.events) > 0 {
		e := heap.Pop(&c.events).(*Event)
		if e.dead {
			continue
		}
		c.now = e.at
		c.fired++
		e.dead = true
		e.fn()
		return true
	}
	return false
}

// Run fires events until the queue is empty.
func (c *Clock) Run() {
	for c.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the clock
// to the deadline. Events scheduled beyond the deadline remain pending.
func (c *Clock) RunUntil(deadline Time) {
	for len(c.events) > 0 {
		// Peek.
		e := c.events[0]
		if e.dead {
			heap.Pop(&c.events)
			continue
		}
		if e.at > deadline {
			break
		}
		c.Step()
	}
	if c.now < deadline {
		c.now = deadline
	}
}

// RNG is a deterministic pseudo-random stream (SplitMix64 core) used by all
// workload generators and simulators. Distinct streams with distinct seeds
// are independent for our purposes.
type RNG struct {
	state uint64
}

// NewRNG returns a stream seeded with seed. Two RNGs with equal seeds produce
// identical sequences on every platform.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed + 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("vclock: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n).
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("vclock: Int63n with n <= 0")
	}
	return int64(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed duration with the given mean.
// It is the inter-arrival generator for the paper's Poisson sources.
func (r *RNG) Exp(mean Duration) Duration {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return Duration(-math.Log(u) * float64(mean))
}

// Uniform returns a uniform duration in [lo, hi].
func (r *RNG) Uniform(lo, hi Duration) Duration {
	if hi < lo {
		panic("vclock: Uniform with hi < lo")
	}
	if hi == lo {
		return lo
	}
	return lo + Duration(r.Int63n(int64(hi-lo)+1))
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
