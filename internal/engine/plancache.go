package engine

// plancache.go implements the prepared-statement cache: parsed (and, for
// SELECT, planned) statements keyed by SQL text, serving explicit prepared
// statements and ad-hoc statements that carry `?` arguments alike. A
// prepared request skips the parse and optimize stages and enters the
// staged pipeline at the execute stage — the paper's §4.1 observation that
// a packet can start with a shorter itinerary, made concrete. Entries are
// invalidated by schema changes (DDL) and by ANALYZE: the kernel bumps a
// schema version on those, and a lookup whose entry predates the current
// version is a miss that drops the stale plan. The cache holds at most
// planCacheCap entries and evicts the least recently used.

import (
	"sync"
	"sync/atomic"

	"stagedb/internal/plan"
	"stagedb/internal/sql"
	"stagedb/internal/value"
)

// Prepared is a cached, parsed and (for SELECT) planned statement, shared by
// an explicit prepared statement and by ad-hoc executions of the same text
// with arguments; Bind decides per execution whether the generic plan runs.
// The AST and plan are shared by every execution and must not be mutated:
// parameter binding substitutes into clones (sql.BindParams,
// plan.Substitute).
type Prepared struct {
	// SQL is the cache key: the statement's original text.
	SQL string
	// Stmt is the parsed statement, placeholders intact.
	Stmt sql.Statement
	// Node is the bound SELECT plan (nil for non-SELECT), with `?`
	// placeholders bound as plan.Param expressions: the generic plan.
	Node plan.Node
	// NumParams is the number of `?` placeholders the statement declares.
	NumParams int

	version uint64 // kernel schema version the entry was built against
	// probe marks a SELECT whose generic plan serves any arguments exactly
	// as a custom plan would (see genericServes).
	probe bool

	// prev and next link the entry into the cache's recency list (most
	// recent first); guarded by the cache's mutex.
	prev, next *Prepared
}

// Bind fills req to execute p with vals bound to its placeholders, entering
// the pipeline at the execute stage (the prepared itinerary): the request
// never visits parse or optimize. A SELECT reuses the generic plan — vals
// substituted into a private copy — when generic is set (an explicit Stmt)
// or when the plan is a point probe that genericServes. Any other statement
// gets a private copy of the AST with vals bound and no plan, so execute
// plans it with the real values (a custom plan): a generic `val >= ?` would
// be estimated at the default selectivity, not at the value's. An argument
// count that does not match fails with sql.BindParams's error.
func (p *Prepared) Bind(req *Request, vals []value.Value, generic bool) error {
	if p.Node != nil && len(vals) == p.NumParams && (generic || p.probe) {
		// The shared AST rides along untouched for lock gathering.
		node, err := plan.Substitute(p.Node, vals)
		if err != nil {
			return err
		}
		req.Stmt, req.Node = p.Stmt, node
		return nil
	}
	stmt, err := sql.BindParams(p.Stmt, vals)
	if err != nil {
		return err
	}
	req.Stmt, req.Node = stmt, nil
	return nil
}

// genericServes reports whether a SELECT's generic plan serves every
// execution as its custom plan would — the parametric-optimization rule:
// reuse a plan only where neither its shape nor its estimate can depend on
// the bound values. That holds for a plan.PointProbe whose select list holds
// no placeholder (a `?` there names and types its output column by the
// value).
func genericServes(stmt sql.Statement, node plan.Node) bool {
	sel, ok := stmt.(*sql.Select)
	if !ok || node == nil || !plan.PointProbe(node) {
		return false
	}
	free := true
	for _, item := range sel.Items {
		sql.Walk(item.Expr, func(e sql.Expr) bool {
			if _, ok := e.(*sql.Placeholder); ok {
				free = false
			}
			return free
		})
	}
	return free
}

// planCacheCap bounds the cache's entries. Any client, a wire client
// included, can add texts to it; past the bound the least recently used
// entry is evicted.
const planCacheCap = 1024

// planCache is the kernel's prepared-statement cache: a map keyed by SQL
// text plus an intrusive recency list for LRU eviction, with
// hit/miss/invalidation/eviction accounting (surfaced as the "prepare"
// pseudo-stage).
type planCache struct {
	mu       sync.Mutex
	entries  map[string]*Prepared
	mru, lru *Prepared

	hits, misses, invalidations, evictions atomic.Int64
}

func newPlanCache() *planCache {
	return &planCache{entries: make(map[string]*Prepared)}
}

// get returns the cached entry for sqlText if it is still valid against the
// current schema version, marking it most recently used. Stale entries are
// dropped and counted as invalidations; both stale and absent lookups count
// as misses.
func (c *planCache) get(sqlText string, version uint64) (*Prepared, bool) {
	c.mu.Lock()
	e := c.entries[sqlText]
	if e != nil {
		c.unlinkLocked(e)
		if e.version != version {
			delete(c.entries, sqlText)
			e = nil
			c.invalidations.Add(1)
		} else {
			c.pushLocked(e)
		}
	}
	c.mu.Unlock()
	if e == nil {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e, true
}

// put stores an entry (last writer wins on a racing double-prepare),
// evicting the least recently used entries past planCacheCap.
func (c *planCache) put(e *Prepared) {
	c.mu.Lock()
	if old := c.entries[e.SQL]; old != nil {
		c.unlinkLocked(old)
	}
	c.entries[e.SQL] = e
	c.pushLocked(e)
	for len(c.entries) > planCacheCap {
		victim := c.lru
		c.unlinkLocked(victim)
		delete(c.entries, victim.SQL)
		c.evictions.Add(1)
	}
	c.mu.Unlock()
}

// pushLocked links e at the most-recent end of the list.
func (c *planCache) pushLocked(e *Prepared) {
	e.prev, e.next = nil, c.mru
	if c.mru != nil {
		c.mru.prev = e
	} else {
		c.lru = e
	}
	c.mru = e
}

// unlinkLocked takes e out of the list.
func (c *planCache) unlinkLocked(e *Prepared) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.mru = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.lru = e.prev
	}
	e.prev, e.next = nil, nil
}

// PlanCacheStats is a point-in-time copy of the cache counters.
type PlanCacheStats struct {
	// Hits counts lookups served from cache; Misses counts lookups that had
	// to parse and plan.
	Hits, Misses int64
	// Invalidations counts entries dropped because DDL or ANALYZE changed
	// the schema version underneath them.
	Invalidations int64
	// Evictions counts entries dropped to keep the cache within its
	// capacity.
	Evictions int64
	// Entries is the current number of cached statements.
	Entries int
}

// Stats snapshots the cache counters.
func (c *planCache) Stats() PlanCacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return PlanCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       n,
	}
}

// Counters renders the cache counters for the "prepare" pseudo-stage row.
func (c *planCache) Counters() map[string]int64 {
	st := c.Stats()
	return map[string]int64{
		"prepare.hits":          st.Hits,
		"prepare.misses":        st.Misses,
		"prepare.invalidations": st.Invalidations,
		"prepare.evictions":     st.Evictions,
		"prepare.entries":       int64(st.Entries),
	}
}
