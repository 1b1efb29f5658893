package exec

import (
	"sync"
	"sync/atomic"
	"time"

	"stagedb/internal/catalog"
	"stagedb/internal/storage"
)

// defaultStallTimeout bounds how long the shared wheel waits on one
// consumer's full buffer before spilling that consumer to a private
// continuation. It must be long enough that an actively draining consumer is
// never kicked by scheduler jitter, and short enough that a genuinely
// stalled consumer (e.g. a hash join's probe input waiting for the build
// side) releases the wheel promptly — a stalled consumer would otherwise
// deadlock consumers of the same wheel that depend on each other's progress.
const defaultStallTimeout = 5 * time.Millisecond

// SharedScans is the fscan stage's work-sharing manager (QPipe-style shared
// table scans applied to the paper's staged design): because every table
// scan in the system is routed to the fscan stage, the stage sees all
// concurrent scans of one table and can serve them from a single in-flight
// heap walk. Each heap page is pinned once and each record decoded once —
// for the union of the columns its attached consumers' plans read — and the
// decoded page fans out to every attached consumer, which applies its own
// filter locally. A query arriving while a scan is mid-flight attaches at
// the scan's current position and the scan wraps circularly to cover the
// late-comer's missed prefix.
//
// One SharedScans instance is owned by the staged engine and shared by all
// pipelines; it is safe for concurrent use.
type SharedScans struct {
	bufferPages int
	stall       time.Duration
	pool        *PagePool // decoded fan-out pages; nil = unpooled
	versioned   bool      // heap records carry MVCC version headers

	mu    sync.Mutex
	scans map[*storage.Heap]*sharedScan

	// Share counters (§5.2 monitoring surface, exported via \stages).
	Starts         atomic.Int64 // shared scans started (first consumer = share miss)
	Attaches       atomic.Int64 // consumers that joined an in-flight scan (share hits)
	Wraps          atomic.Int64 // attaches mid-scan that wrap circularly
	Spills         atomic.Int64 // stalled consumers kicked to a private continuation
	Detaches       atomic.Int64 // consumers released by their producer (served, spilled, or abandoned)
	PagesDecoded   atomic.Int64 // heap pages pinned+decoded by shared producers
	PagesDelivered atomic.Int64 // decoded pages fanned out to consumers
}

// NewSharedScans returns a manager whose consumer fan-out buffers hold
// bufferPages decoded pages each (0 = the exchange default). Decoded pages
// are drawn from pool when non-nil; fanned-out pages carry one reference per
// attached consumer and recycle on the last release.
func NewSharedScans(bufferPages int, pool *PagePool) *SharedScans {
	return &SharedScans{
		bufferPages: bufferPages,
		stall:       defaultStallTimeout,
		pool:        pool,
		scans:       make(map[*storage.Heap]*sharedScan),
	}
}

// SetVersioned marks the manager's heaps as MVCC-versioned: producers strip
// each record's version header, decode the payload, and publish the (xmin,
// xmax) stamps in the fan-out page's Vers sidecar so every consumer can
// apply its own snapshot's visibility. Set once at engine construction,
// before any scan starts.
func (m *SharedScans) SetVersioned(v bool) { m.versioned = v }

// SharedScanStats is a point-in-time copy of the share counters.
type SharedScanStats struct {
	Starts         int64
	Attaches       int64
	Wraps          int64
	Spills         int64
	Detaches       int64
	PagesDecoded   int64
	PagesDelivered int64
}

// Stats snapshots the share counters.
func (m *SharedScans) Stats() SharedScanStats {
	return SharedScanStats{
		Starts:         m.Starts.Load(),
		Attaches:       m.Attaches.Load(),
		Wraps:          m.Wraps.Load(),
		Spills:         m.Spills.Load(),
		Detaches:       m.Detaches.Load(),
		PagesDecoded:   m.PagesDecoded.Load(),
		PagesDelivered: m.PagesDelivered.Load(),
	}
}

// Counters renders the share counters as a generic metrics map for stage
// snapshots (\stages).
func (m *SharedScans) Counters() map[string]int64 {
	st := m.Stats()
	return map[string]int64{
		"share.starts":          st.Starts,
		"share.attach-hits":     st.Attaches,
		"share.wraps":           st.Wraps,
		"share.spills":          st.Spills,
		"share.detaches":        st.Detaches,
		"share.pages-decoded":   st.PagesDecoded,
		"share.pages-delivered": st.PagesDelivered,
	}
}

// sharedScan is one in-flight circular scan of a heap. A dedicated producer
// goroutine walks the page list round-robin, decoding each page once and
// pushing the decoded page to every attached consumer. The page list is
// snapshotted at scan start and attach rejects scans whose snapshot went
// stale (the heap grew) in between. Under MVCC, writers mutate the heap
// while the wheel turns: the per-page decode runs under the heap latch, rows
// a writer adds to already-listed pages ride along with their version stamps
// (each consumer's snapshot filters them), pages appended after the snapshot
// are invisible to attached snapshots anyway, and readers' DDL locks plus
// the vacuum GC horizon keep listed pages from disappearing.
type sharedScan struct {
	mgr   *SharedScans
	heap  *storage.Heap
	tbl   *catalog.Table
	pages []storage.PageID

	mu   sync.Mutex
	cons []*scanConsumer
	pos  int  // next page index the producer will read
	done bool // producer exited or failed; no new attaches
}

// scanConsumer is one query's tap on a shared scan: a bounded exchange of
// decoded pages plus detach bookkeeping. The producer is the sole closer of
// ex; close (the consumer side) only signals abandonment.
type scanConsumer struct {
	mgr  *SharedScans
	scan *sharedScan
	ex   *exchange
	cols []bool // columns this consumer's plan reads (plan.SeqScan.Cols); nil = all

	// remaining counts pages still owed; guarded by scan.mu (producer-side).
	remaining int

	// detached closes when the producer has let go of this consumer (served
	// in full, spilled, abandoned, or failed). RunStaged waits on it before
	// returning, so the query's table lock outlives every page read the
	// wheel performs on the query's behalf — the lock-coverage invariant
	// shared scans rely on.
	detached chan struct{}

	mu     sync.Mutex
	err    error
	closed bool
	quit   chan struct{}

	// Private continuation, set when the producer spills this consumer: the
	// wheel-order remainder of the scan the consumer finishes on its own.
	// Guarded by mu; read by the consumer only after ex reports end of
	// stream (the producer sets it before closing ex).
	contPages []storage.PageID
	contPos   int
	contLeft  int
}

// detachAck marks the producer done with this consumer. Idempotent.
func (c *scanConsumer) detachAck() {
	c.mu.Lock()
	released := false
	select {
	case <-c.detached:
	default:
		close(c.detached)
		released = true
	}
	c.mu.Unlock()
	if released && c.mgr != nil {
		c.mgr.Detaches.Add(1)
	}
}

// awaitDetach blocks until the producer has released this consumer. The
// wait is bounded: a closed pipeline fails the very next push (pushGone),
// and pushes to other consumers are bounded by the stall timeout.
func (c *scanConsumer) awaitDetach() { <-c.detached }

// continuation returns the spilled remainder, if any.
func (c *scanConsumer) continuation() ([]storage.PageID, int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.contPages, c.contPos, c.contLeft
}

// attach joins (or starts) the shared scan over h. cols is the set of table
// columns the attaching scan reads (nil = all): every page delivered to this
// consumer has at least those decoded. done is the attaching pipeline's
// failure/completion channel: when it closes, deliveries to this consumer
// abort and the producer detaches it.
func (m *SharedScans) attach(h *storage.Heap, tbl *catalog.Table, cols []bool, done <-chan struct{}) *scanConsumer {
	c := &scanConsumer{mgr: m, cols: cols, quit: make(chan struct{}), detached: make(chan struct{})}
	m.mu.Lock()
	s := m.scans[h]
	if s != nil {
		s.mu.Lock()
		if s.done || h.Pages() != len(s.pages) {
			// Scan draining, failed, or its page snapshot went stale (the
			// heap grew between queries): it keeps serving its existing
			// consumers, but new arrivals get a fresh scan.
			s.mu.Unlock()
			s = nil
		}
	}
	if s != nil {
		// Share hit: join the in-flight scan at its current position.
		c.scan = s
		c.ex = newExchange(m.bufferPages, done)
		c.remaining = len(s.pages)
		midway := s.pos != 0
		s.cons = append(s.cons, c)
		s.mu.Unlock()
		m.mu.Unlock()
		m.Attaches.Add(1)
		if midway {
			m.Wraps.Add(1)
		}
		return c
	}
	pages := h.PageIDs()
	if len(pages) == 0 {
		m.mu.Unlock()
		c.ex = newExchange(m.bufferPages, done)
		c.ex.close()
		c.detachAck()
		return c
	}
	ns := &sharedScan{mgr: m, heap: h, tbl: tbl, pages: pages}
	c.scan = ns
	c.ex = newExchange(m.bufferPages, done)
	c.remaining = len(pages)
	ns.cons = []*scanConsumer{c}
	m.scans[h] = ns
	m.mu.Unlock()
	m.Starts.Add(1)
	go ns.run()
	return c
}

// run is the producer loop: claim the next page position (with the consumer
// set it will serve), decode the page once, fan it out, and retire consumers
// that completed their full circle or went away.
//
// The page is decoded for the union of the column sets of exactly the
// consumers snapshotted with the position, and delivered to exactly those:
// a consumer attaching afterwards — perhaps with a wider set — is served from
// the next page on, so no consumer ever receives a page narrower than its
// need.
func (s *sharedScan) run() {
	maskBuf := make([]bool, len(s.tbl.Schema.Columns)) // scratch for the per-page union
	var consBuf []*scanConsumer                        // scratch for the per-page consumer snapshot
	for {
		s.mu.Lock()
		if len(s.cons) == 0 {
			s.mu.Unlock()
			if s.tryExit() {
				return
			}
			continue
		}
		cons := append(consBuf[:0], s.cons...)
		consBuf = cons
		pos := s.pos
		s.pos++
		if s.pos >= len(s.pages) {
			s.pos = 0
		}
		s.mu.Unlock()

		pg, err := s.decode(s.pages[pos], unionCols(cons, maskBuf))
		if err != nil {
			s.fail(err)
			return
		}
		s.mgr.PagesDecoded.Add(1)
		for _, c := range cons {
			pushed := pg.Len() > 0
			var outcome int
			if pushed {
				// The consumer gets its own reference; a failed delivery
				// hands the reference straight back.
				pg.Retain()
				outcome = c.push(pg, s.mgr.stall)
				if outcome != pushOK {
					pg.Release()
				}
			} else {
				// Nothing to deliver for an empty page, but still notice a
				// gone consumer so the wheel never works for a dead query.
				outcome = c.liveness()
			}
			finished := false
			s.mu.Lock()
			switch outcome {
			case pushOK:
				c.remaining--
				finished = c.remaining == 0
			case pushStalled:
				// Spill: hand the consumer the wheel-order remainder
				// (starting at this very page) to finish privately, so a
				// stalled consumer never deadlocks the wheel. Deliveries to
				// an attached consumer are gap-free, so "remaining pages
				// from pos" is exactly what it has not seen.
				c.mu.Lock()
				c.contPages, c.contPos, c.contLeft = s.pages, pos, c.remaining
				c.mu.Unlock()
			}
			if outcome != pushOK || finished {
				s.detachLocked(c)
			}
			s.mu.Unlock()
			if outcome == pushOK && pushed {
				s.mgr.PagesDelivered.Add(1)
			}
			if outcome == pushStalled {
				s.mgr.Spills.Add(1)
			}
			if outcome != pushOK || finished {
				// End of this consumer's shared stream; the producer is the
				// sole closer of the consumer exchange.
				c.ex.close()
				c.detachAck()
			}
		}
		// Drop the producer's own reference; the page recycles once every
		// consumer that accepted it releases its copy.
		pg.Release()
	}
}

// unionCols builds the union of the consumers' column sets in buf (one entry
// per table column) and returns it, or nil — all columns — as soon as one
// consumer reads everything.
func unionCols(cons []*scanConsumer, buf []bool) []bool {
	clear(buf)
	for _, c := range cons {
		if c.cols == nil {
			return nil
		}
		for j, need := range c.cols {
			if need {
				buf[j] = true
			}
		}
	}
	return buf
}

// decode pins one heap page and decodes every live record on it — once, for
// all attached consumers, materialising the columns in cols (nil = all) —
// into rows carved from a pooled page's own value storage, so a page costs
// no allocation per row once the pool is warm. In versioned mode it strips
// each record's version header and publishes the stamps in the Vers sidecar;
// visibility stays per-consumer (snapshots differ), so nothing is filtered
// here.
func (s *sharedScan) decode(id storage.PageID, cols []bool) (*Page, error) {
	pg := s.mgr.pool.Get(DefaultPageRows)
	if s.mgr.versioned {
		pg.Vers = pg.verBuf[:0]
	}
	w := len(s.tbl.Schema.Columns)
	var derr error
	err := s.heap.ScanPage(id, func(_ storage.RID, rec []byte) bool {
		var ver RowVer
		if s.mgr.versioned {
			xmin, xmax, err := storage.VersionOf(rec)
			if err != nil {
				derr = err
				return false
			}
			ver = RowVer{Xmin: xmin, Xmax: xmax}
			rec, _ = storage.PayloadOf(rec)
		}
		row := pg.carve(w)
		if err := storage.DecodeRowInto(s.tbl.Schema, rec, cols, row); err != nil {
			derr = err
			return false
		}
		pg.Rows = append(pg.Rows, row)
		if s.mgr.versioned {
			pg.Vers = append(pg.Vers, ver)
		}
		return true
	})
	if err == nil {
		err = derr
	}
	if err != nil {
		pg.Release()
		return nil, err
	}
	return pg, nil
}

// tryExit retires the producer if no consumer raced in; it reports whether
// the scan is gone. Lock order is manager then scan, matching attach.
func (s *sharedScan) tryExit() bool {
	s.mgr.mu.Lock()
	s.mu.Lock()
	if len(s.cons) > 0 {
		s.mu.Unlock()
		s.mgr.mu.Unlock()
		return false
	}
	s.done = true
	if s.mgr.scans[s.heap] == s {
		delete(s.mgr.scans, s.heap)
	}
	s.mu.Unlock()
	s.mgr.mu.Unlock()
	return true
}

// fail aborts the scan, propagating err to every attached consumer.
func (s *sharedScan) fail(err error) {
	s.mgr.mu.Lock()
	s.mu.Lock()
	s.done = true
	if s.mgr.scans[s.heap] == s {
		delete(s.mgr.scans, s.heap)
	}
	cons := s.cons
	s.cons = nil
	s.mu.Unlock()
	s.mgr.mu.Unlock()
	for _, c := range cons {
		c.setErr(err)
		c.ex.close()
		c.detachAck()
	}
}

// detachLocked removes c from the consumer set. Callers hold s.mu.
func (s *sharedScan) detachLocked(c *scanConsumer) {
	for i, x := range s.cons {
		if x == c {
			s.cons = append(s.cons[:i], s.cons[i+1:]...)
			return
		}
	}
}

// push outcomes.
const (
	pushOK      = iota // page delivered
	pushGone           // consumer abandoned (Close) or its pipeline ended
	pushStalled        // buffer stayed full past the stall timeout
)

// push delivers one decoded page, blocking on the consumer's bounded buffer
// for at most stall. pushGone means the consumer abandoned the scan (Close)
// or its pipeline completed/failed; pushStalled means it is not draining —
// the producer spills it rather than let one stalled consumer wedge every
// query on the wheel.
func (c *scanConsumer) push(pg *Page, stall time.Duration) int {
	// An abandoned or completed consumer must not keep absorbing pages into
	// buffer slots nobody will read.
	if c.liveness() == pushGone {
		return pushGone
	}
	select {
	case c.ex.ch <- pg:
		c.ex.wakeReceiver()
		return pushOK
	default:
	}
	timer := time.NewTimer(stall)
	defer timer.Stop()
	select {
	case c.ex.ch <- pg:
		c.ex.wakeReceiver()
		return pushOK
	case <-c.ex.done:
		return pushGone
	case <-c.quit:
		return pushGone
	case <-timer.C:
		return pushStalled
	}
}

// liveness reports pushOK while the consumer still wants pages, pushGone
// once it abandoned or its pipeline ended.
func (c *scanConsumer) liveness() int {
	select {
	case <-c.ex.done:
		return pushGone
	case <-c.quit:
		return pushGone
	default:
		return pushOK
	}
}

// close signals abandonment (operator Close, early LIMIT). Idempotent.
func (c *scanConsumer) close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.quit)
	}
	c.mu.Unlock()
}

func (c *scanConsumer) setErr(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// takeErr returns the error the producer recorded before closing the stream.
func (c *scanConsumer) takeErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}
