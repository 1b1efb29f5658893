package exec

// hash.go holds what the hash operators — the aggregation, which also serves
// DISTINCT, and the hash join — share: the table that chains their entries by
// hash, and the grace-partition files they spill to when that table outgrows
// the WorkMem budget.

import (
	"unsafe"

	"stagedb/internal/exec/spill"
	"stagedb/internal/value"
)

// hashTable chains entries by hash. Entries are numbered 0, 1, 2, … in the
// order they are added; the caller keeps them in a slice of its own, indexed
// by that number, and compares keys itself (different keys can share a
// hash). A chain yields its entries in insertion order: a key-less join is one
// chain, and it must emit its build rows in arrival order.
type hashTable struct {
	chains map[uint64]hashChain
	next   []int32 // next[e] is the entry after e in its chain; -1 ends it
}

// hashChain is the first and the last entry of one hash's chain.
type hashChain struct{ head, tail int32 }

// hashEntryMem is what one hashTable entry costs the WorkMem budget: its next
// slot and, at worst, a chain of its own (the map's key and head/tail pair).
const hashEntryMem = int64(unsafe.Sizeof(int32(0)) + unsafe.Sizeof(uint64(0)) + unsafe.Sizeof(hashChain{}))

// reset empties the table and keeps its storage; hint sizes a table that has
// none yet.
func (t *hashTable) reset(hint int) {
	if t.chains == nil {
		t.chains = make(map[uint64]hashChain, hint)
	} else {
		clear(t.chains)
	}
	t.next = t.next[:0]
}

// add appends an entry to h's chain and returns the entry's number.
//
//stagedb:hot
func (t *hashTable) add(h uint64) int32 {
	e := int32(len(t.next))
	t.next = append(t.next, -1)
	c, ok := t.chains[h]
	if ok {
		t.next[c.tail] = e
		c.tail = e
	} else {
		c = hashChain{head: e, tail: e}
	}
	t.chains[h] = c
	return e
}

// first returns the first entry of h's chain, or -1; next walks on from it.
//
//stagedb:hot
func (t *hashTable) first(h uint64) int32 {
	if c, ok := t.chains[h]; ok {
		return c.head
	}
	return -1
}

// graceFanOut is the grace-partitioning fan-out: a spilling hash operator
// splits its keys into graceFanOut partitions per level.
const graceFanOut = 8

// graceMaxDepth bounds partition recursion. A partition still over budget at
// the bottom is processed in memory anyway — termination beats a hard failure
// on adversarial key distributions.
const graceMaxDepth = 6

// partOf selects a grace partition for a key hash at a recursion depth, each
// level consuming a fresh slice of the hash's bits: the keys of one partition
// share the bits of every level above, so a split must look at new ones.
//
//stagedb:hot
func partOf(h uint64, depth int) int {
	return int((h >> (7 + 3*depth)) & (graceFanOut - 1))
}

// gracePair is one grace partition: a file per side, and the depth its rows
// were hashed at, which is the level a split routes them by.
type gracePair struct {
	side  [2]*spill.File
	depth int
}

// graceFiles owns a hash operator's grace-partition files: the level being
// written (two sides of graceFanOut files each), the finished pairs queued
// for their turn, and the pair being consumed. The operator decides what goes
// on each side — the aggregation writes partial group states and raw rows,
// the join build and probe rows — and how a pair is consumed; close removes
// every file still owned, whichever error or teardown path gets there.
type graceFiles struct {
	level [2][]*spill.File // the level being written; nil when none
	depth int              // the depth the level routes by
	queue []gracePair      // finished pairs, next first
	cur   gracePair        // the pair being consumed
}

// open starts a level routed at depth: graceFanOut files per side, created in
// dir. A failed create removes the files already made.
func (g *graceFiles) open(dir string, m *SpillMetrics, depth int) error {
	files := make([]*spill.File, 0, 2*graceFanOut)
	for range 2 * graceFanOut {
		f, err := spill.Create(dir, m)
		if err != nil {
			for _, f := range files {
				f.Close()
			}
			return err
		}
		files = append(files, f)
	}
	g.level = [2][]*spill.File{files[:graceFanOut], files[graceFanOut:]}
	g.depth = depth
	return nil
}

// add writes row to its partition, by hash h, on one side of the level being
// written.
//
//stagedb:hot
func (g *graceFiles) add(side int, h uint64, row value.Row) error {
	return g.level[side][partOf(h, g.depth)].Append(row)
}

// finish seals the level being written and queues its pairs ahead of those
// already queued, so a split partition's sub-pairs are consumed before its
// siblings.
func (g *graceFiles) finish() error {
	for _, files := range g.level {
		for _, f := range files {
			if err := f.Finish(); err != nil {
				return err
			}
		}
	}
	pairs := make([]gracePair, graceFanOut, graceFanOut+len(g.queue))
	for i := range pairs {
		pairs[i] = gracePair{side: [2]*spill.File{g.level[0][i], g.level[1][i]}, depth: g.depth + 1}
	}
	g.queue = append(pairs, g.queue...)
	g.level = [2][]*spill.File{}
	return nil
}

// pop makes the next queued pair the one being consumed; false when the
// queue is empty. done ends it.
func (g *graceFiles) pop() (gracePair, bool) {
	if len(g.queue) == 0 {
		return gracePair{}, false
	}
	g.cur, g.queue = g.queue[0], g.queue[1:]
	return g.cur, true
}

// done removes the files of the pair being consumed.
func (g *graceFiles) done() {
	for _, f := range g.cur.side {
		if f != nil {
			f.Close()
		}
	}
	g.cur = gracePair{}
}

// close removes every file still owned: the level being written, the queued
// pairs and the pair being consumed.
func (g *graceFiles) close() {
	g.done()
	for _, files := range g.level {
		for _, f := range files {
			f.Close()
		}
	}
	for _, p := range g.queue {
		p.side[0].Close()
		p.side[1].Close()
	}
	*g = graceFiles{}
}
