package exec

import (
	"sync"
	"sync/atomic"

	"stagedb/internal/storage"
)

// SharedScans is the fscan stage's scan-synchronization registry (the
// paper's shared table scans done as synchronized, circular scans): because
// every table scan in the system is routed to the fscan stage, the stage
// sees all concurrent scans of one table. A scan starting while another scan
// of the same heap is in flight begins at the page that scan reported last
// and walks its own page list circularly from there, so the two read the
// same pages at about the same time and share them through the buffer pool
// instead of each faulting the whole table in. Each scan still pins, decodes,
// checks visibility and filters its own pages on its own task: nothing runs
// outside the stage workers and no scan ever waits on another.
//
// One SharedScans instance is owned by the staged engine and shared by all
// pipelines; it is safe for concurrent use.
type SharedScans struct {
	mu    sync.Mutex
	scans map[*storage.Heap]*scanPos

	// Share counters (§5.2 monitoring surface, exported via \stages).
	Starts       atomic.Int64 // scans that found no scan of their heap in flight (share misses)
	Attaches     atomic.Int64 // scans that started at an in-flight scan's position (share hits)
	Wraps        atomic.Int64 // attaches past page 0, which wrap circularly
	Detaches     atomic.Int64 // scans that deregistered (finished, closed, or failed)
	PagesDecoded atomic.Int64 // heap pages walked by synchronized scans
}

// scanPos is one heap's entry in the registry: how many scans of it are
// registered, and the page index one of them reported last. The entry lives
// while active > 0, so a registered scan may keep its pointer.
type scanPos struct {
	active int          // guarded by SharedScans.mu
	next   atomic.Int64 // page index the last reporting scan reads next
}

// NewSharedScans returns an empty registry. Both arguments are unused — a
// synchronized scan buffers nothing and decodes into its own output pages —
// and stay for the callers that size the registry like an exchange.
func NewSharedScans(bufferPages int, pool *PagePool) *SharedScans {
	return &SharedScans{scans: make(map[*storage.Heap]*scanPos)}
}

// SetVersioned is a no-op kept for its callers: each scan applies its own
// snapshot's visibility to the records it reads (BuildConfig.Visible), so
// the registry never needs to know whether records carry version headers.
func (m *SharedScans) SetVersioned(bool) {}

// SharedScanStats is a point-in-time copy of the share counters.
// PagesDelivered always equals PagesDecoded: every scan decodes its own
// pages.
type SharedScanStats struct {
	Starts         int64
	Attaches       int64
	Wraps          int64
	Detaches       int64
	PagesDecoded   int64
	PagesDelivered int64
}

// Stats snapshots the share counters.
func (m *SharedScans) Stats() SharedScanStats {
	decoded := m.PagesDecoded.Load()
	return SharedScanStats{
		Starts:         m.Starts.Load(),
		Attaches:       m.Attaches.Load(),
		Wraps:          m.Wraps.Load(),
		Detaches:       m.Detaches.Load(),
		PagesDecoded:   decoded,
		PagesDelivered: decoded,
	}
}

// Counters renders the share counters as a generic metrics map for stage
// snapshots (\stages).
func (m *SharedScans) Counters() map[string]int64 {
	st := m.Stats()
	return map[string]int64{
		"share.starts":        st.Starts,
		"share.attach-hits":   st.Attaches,
		"share.wraps":         st.Wraps,
		"share.detaches":      st.Detaches,
		"share.pages-decoded": st.PagesDecoded,
	}
}

// register records a scan of h over a snapshot of pages heap pages and
// returns its entry and the page index it starts at: the position an
// in-flight scan reported last, or 0 when none is in flight. A reported
// index past the caller's snapshot (a scan that listed more pages) starts
// it at 0.
func (m *SharedScans) register(h *storage.Heap, pages int) (*scanPos, int) {
	m.mu.Lock()
	sp := m.scans[h]
	if sp == nil {
		sp = &scanPos{}
		m.scans[h] = sp
	}
	attached := sp.active > 0
	start := 0
	if attached {
		start = int(sp.next.Load())
		if start >= pages {
			start = 0
		}
	}
	sp.active++
	m.mu.Unlock()
	if !attached {
		m.Starts.Add(1)
		return sp, 0
	}
	m.Attaches.Add(1)
	if start > 0 {
		m.Wraps.Add(1)
	}
	return sp, start
}

// deregister ends a registration taken by register; walked is the number of
// pages the scan read.
func (m *SharedScans) deregister(h *storage.Heap, sp *scanPos, walked int) {
	m.mu.Lock()
	sp.active--
	if sp.active == 0 {
		delete(m.scans, h)
	}
	m.mu.Unlock()
	m.Detaches.Add(1)
	m.PagesDecoded.Add(int64(walked))
}
