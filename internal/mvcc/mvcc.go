// Package mvcc implements multi-version concurrency control with snapshot
// isolation for the staged engine.
//
// Every heap record carries a 16-byte version header (storage.VerHdrLen):
// xmin, the transaction that created the version, and xmax, the transaction
// that deleted or superseded it (0 while live). The Manager maps transaction
// ids to their outcome — active, committed at a logical timestamp, or
// aborted — and decides visibility: a snapshot taken at BEGIN sees exactly
// the versions committed at or before its begin timestamp, plus its own
// uncommitted writes. Readers take no locks; writers serialize per table
// through the lock manager and detect write-write conflicts
// first-committer-wins (ErrSerializationFailure, retryable).
//
// Timestamps are logical ticks from a vclock.Oracle and are NOT persisted:
// after a crash, recovery undoes every loser transaction before the first
// snapshot exists, so all transaction ids surviving in the heap belong to
// committed transactions and the unknown-id rule below gives them the right
// visibility.
//
// Unknown-id rule: a transaction id with no status entry is treated as
// committed at timestamp 0 — visible to every snapshot as a creator (xmin),
// dead to every snapshot as a deleter (xmax). This is sound because entries
// are only pruned when no active snapshot could distinguish them from
// "committed forever ago" (see Prune), and after recovery only committed
// ids survive in the heap.
package mvcc

import (
	"errors"
	"sync"
	"sync/atomic"

	"stagedb/internal/vclock"
)

// ErrSerializationFailure reports a first-committer-wins write-write
// conflict: another transaction modified a row this transaction intended to
// write and committed after this transaction's snapshot began. The
// transaction was rolled back; retrying it against a fresh snapshot is safe
// and expected to succeed.
var ErrSerializationFailure = errors.New("mvcc: serialization failure (concurrent write committed first, retry transaction)")

type txnState uint8

const (
	stateActive txnState = iota
	stateCommitted
	stateAborted
)

// txnStatus is one transaction's outcome. Entries stay until Prune decides
// no active snapshot can distinguish them from the unknown-id default.
type txnStatus struct {
	state      txnState
	commitTS   vclock.Time // valid when committed
	abortEpoch vclock.Time // set by AbortDone once undo completed; 0 = undo in flight
}

// Snapshot is a transaction's consistent view: it sees versions committed at
// or before TS, plus writes stamped with its own id.
type Snapshot struct {
	// TS is the begin timestamp: the newest commit timestamp issued before
	// this snapshot was taken.
	TS vclock.Time
	// ID is the owning transaction's id; versions stamped with it are the
	// transaction's own uncommitted writes.
	ID uint64
}

// Stats is a point-in-time summary of MVCC activity, surfaced on the engine
// stats API next to the stage counters.
type Stats struct {
	Begins          int64 // snapshots taken
	Commits         int64 // transactions stamped committed
	Aborts          int64 // transactions stamped aborted
	Conflicts       int64 // serialization failures raised
	VersionsPruned  int64 // dead versions physically reclaimed by vacuum
	ActiveSnapshots int   // snapshots currently open
	StatusEntries   int   // transaction-status entries retained
	OldestActiveTS  vclock.Time
}

// Manager is the transaction-status table plus the set of open snapshots.
// All methods are safe for concurrent use.
type Manager struct {
	oracle *vclock.Oracle

	mu     sync.RWMutex
	txns   map[uint64]*txnStatus
	active map[uint64]*Snapshot // open snapshot per transaction id (GC horizon)

	begins, commits, aborts, conflicts, pruned atomic.Int64

	// commitDrawn, when set, runs inside Commit between drawing the commit
	// timestamp and publishing it — a test hook that parks a committer in
	// that window. Nil outside tests.
	commitDrawn func()
}

// NewManager returns a Manager drawing timestamps from oracle.
func NewManager(oracle *vclock.Oracle) *Manager {
	return &Manager{
		oracle: oracle,
		txns:   make(map[uint64]*txnStatus),
		active: make(map[uint64]*Snapshot),
	}
}

// Oracle returns the timestamp oracle the manager draws from.
func (m *Manager) Oracle() *vclock.Oracle { return m.oracle }

// Begin registers transaction id as active and opens its snapshot at the
// current timestamp high-water mark.
//
// The timestamp is read under m.mu, as Commit draws and publishes its
// timestamp under m.mu: a snapshot therefore sees every transaction
// committed at or before its TS as committed from its very first visibility
// check. Read outside the lock, a snapshot begun between a committer's draw
// and its publish would get TS equal to the commit timestamp yet find the
// committer still active — a torn read of that transaction, which the scans'
// per-creator visibility memo would then freeze.
func (m *Manager) Begin(id uint64) *Snapshot {
	m.mu.Lock()
	snap := &Snapshot{TS: m.oracle.Now(), ID: id}
	m.txns[id] = &txnStatus{state: stateActive}
	m.active[id] = snap
	m.mu.Unlock()
	m.begins.Add(1)
	return snap
}

// SnapshotOf returns transaction id's open snapshot, or nil.
func (m *Manager) SnapshotOf(id uint64) *Snapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.active[id]
}

// End closes a snapshot, releasing its pin on the GC horizon. The owning
// transaction's status entry is unaffected (see Forget).
func (m *Manager) End(snap *Snapshot) {
	if snap == nil {
		return
	}
	m.mu.Lock()
	if m.active[snap.ID] == snap {
		delete(m.active, snap.ID)
	}
	m.mu.Unlock()
}

// Commit stamps transaction id committed at a fresh timestamp. Must be
// called after the commit record is durable and before the transaction's
// write locks are released, so that any later snapshot either sees all of
// the transaction's versions or none. The timestamp is drawn and published
// under m.mu, so no snapshot can begin in between (see Begin).
func (m *Manager) Commit(id uint64) {
	m.mu.Lock()
	ts := m.oracle.Next()
	if m.commitDrawn != nil {
		m.commitDrawn()
	}
	m.txns[id] = &txnStatus{state: stateCommitted, commitTS: ts}
	m.mu.Unlock()
	m.commits.Add(1)
}

// CommitReadOnly commits a transaction that stamped no version. Nothing
// orders against it, so it draws no timestamp, and its status entry is
// dropped rather than stamped (see Forget).
func (m *Manager) CommitReadOnly(id uint64) {
	m.Forget(id)
	m.commits.Add(1)
}

// Forget drops transaction id's status entry without waiting for Prune. Only
// for a transaction that never stamped a version: no heap record, and no
// copy of one a reader still holds, carries the id, so no visibility check
// will ever resolve it — and an entry kept would be one retained per read.
func (m *Manager) Forget(id uint64) {
	m.mu.Lock()
	delete(m.txns, id)
	m.mu.Unlock()
}

// Abort stamps transaction id aborted. Must be called before undo starts:
// from that point its versions are invisible to every snapshot, so readers
// never observe a half-undone transaction. Aborting an already-committed id
// is a no-op (commit wins — its versions are already visible).
func (m *Manager) Abort(id uint64) {
	m.mu.Lock()
	if st, ok := m.txns[id]; ok && st.state == stateCommitted {
		m.mu.Unlock()
		return
	}
	m.txns[id] = &txnStatus{state: stateAborted}
	m.mu.Unlock()
	m.aborts.Add(1)
}

// AbortDone records that transaction id's undo completed: no heap record
// references the id any more, so once every snapshot opened before this
// point has ended the status entry can be pruned.
func (m *Manager) AbortDone(id uint64) {
	ts := m.oracle.Next()
	m.mu.Lock()
	if st, ok := m.txns[id]; ok && st.state == stateAborted {
		st.abortEpoch = ts
	}
	m.mu.Unlock()
}

// CommittedTS resolves id under the unknown-id rule: unknown ids are
// committed at timestamp 0; active and aborted ids are not committed.
// Writers use it for latest-state decisions (primary-key checks, vacuum
// horizons) that the snapshot-relative Visible cannot answer.
func (m *Manager) CommittedTS(id uint64) (vclock.Time, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.commitTSLocked(id)
}

// Conflict counts one serialization failure.
func (m *Manager) Conflict() { m.conflicts.Add(1) }

// Pruned counts n dead versions physically reclaimed by vacuum.
func (m *Manager) Pruned(n int64) { m.pruned.Add(n) }

// Visible reports whether a version stamped (xmin, xmax) is visible to snap:
// the creator must be the snapshot's own transaction or committed at or
// before the snapshot's begin timestamp, and the deleter (if any) must not
// be — a deletion by self, or committed at or before the begin timestamp,
// hides the version; an active, aborted, or later-committed deleter does
// not. It runs once per row on every versioned scan.
//
//stagedb:hot
func (m *Manager) Visible(snap *Snapshot, xmin, xmax uint64) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if xmin != snap.ID {
		ts, committed := m.commitTSLocked(xmin)
		if !committed || ts > snap.TS {
			return false
		}
	}
	if xmax == 0 {
		return true
	}
	if xmax == snap.ID {
		return false
	}
	ts, committed := m.commitTSLocked(xmax)
	return !committed || ts > snap.TS
}

// commitTSLocked resolves id to its commit timestamp. Unknown ids are
// committed at timestamp 0 (see the package comment); active and aborted
// ids are not committed.
//
//stagedb:hot
func (m *Manager) commitTSLocked(id uint64) (vclock.Time, bool) {
	st, ok := m.txns[id]
	if !ok {
		return 0, true
	}
	if st.state == stateCommitted {
		return st.commitTS, true
	}
	return 0, false
}

// OldestActiveTS returns the GC horizon: the begin timestamp of the oldest
// open snapshot, or the current timestamp high-water mark when none is
// open. A version whose deleter committed at or before the horizon is
// invisible to every present and future snapshot and may be physically
// reclaimed.
func (m *Manager) OldestActiveTS() vclock.Time {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.oldestActiveLocked()
}

func (m *Manager) oldestActiveLocked() vclock.Time {
	oldest := m.oracle.Now()
	for _, snap := range m.active {
		if snap.TS < oldest {
			oldest = snap.TS
		}
	}
	return oldest
}

// Prune drops transaction-status entries that no present or future snapshot
// can distinguish from the unknown-id default: committed entries whose
// commit timestamp is below every open snapshot's begin timestamp (the
// default — committed at 0 — gives the same verdict), and aborted entries
// whose undo finished before every open snapshot began (no record carries
// the id, so nothing consults it). Active entries are never pruned. Returns
// the number of entries dropped.
func (m *Manager) Prune() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	horizon := m.oldestActiveLocked()
	dropped := 0
	for id, st := range m.txns {
		switch st.state {
		case stateCommitted:
			if st.commitTS < horizon {
				delete(m.txns, id)
				dropped++
			}
		case stateAborted:
			if st.abortEpoch != 0 && st.abortEpoch < horizon {
				delete(m.txns, id)
				dropped++
			}
		}
	}
	return dropped
}

// Stats returns a point-in-time summary.
func (m *Manager) Stats() Stats {
	m.mu.RLock()
	s := Stats{
		ActiveSnapshots: len(m.active),
		StatusEntries:   len(m.txns),
		OldestActiveTS:  m.oldestActiveLocked(),
	}
	m.mu.RUnlock()
	s.Begins = m.begins.Load()
	s.Commits = m.commits.Load()
	s.Aborts = m.aborts.Load()
	s.Conflicts = m.conflicts.Load()
	s.VersionsPruned = m.pruned.Load()
	return s
}
