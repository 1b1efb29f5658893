package mvcc

import (
	"testing"

	"stagedb/internal/vclock"
)

func newTestManager() *Manager { return NewManager(vclock.NewOracle(0)) }

func TestOwnUncommittedWritesVisible(t *testing.T) {
	m := newTestManager()
	snap := m.Begin(1)
	if !m.Visible(snap, 1, 0) {
		t.Fatal("own uncommitted insert must be visible")
	}
	if m.Visible(snap, 1, 1) {
		t.Fatal("version deleted by self must be invisible")
	}
	// Another transaction must not see txn 1's uncommitted write.
	other := m.Begin(2)
	if m.Visible(other, 1, 0) {
		t.Fatal("uncommitted write of txn 1 visible to txn 2")
	}
	m.End(snap)
	m.End(other)
}

func TestConcurrentCommitterInvisible(t *testing.T) {
	m := newTestManager()
	reader := m.Begin(1)
	m.Begin(2)
	m.Commit(2) // commits after reader's snapshot began
	if m.Visible(reader, 2, 0) {
		t.Fatal("commit after snapshot began must be invisible")
	}
	late := m.Begin(3)
	if !m.Visible(late, 2, 0) {
		t.Fatal("later snapshot must see txn 2's commit")
	}
	m.End(reader)
	m.End(late)
}

func TestDeleterVisibility(t *testing.T) {
	m := newTestManager()
	m.Begin(10)
	m.Commit(10) // creator committed before everything below

	// Deleter committed before the snapshot: version is dead.
	m.Begin(11)
	m.Commit(11)
	snap := m.Begin(1)
	if m.Visible(snap, 10, 11) {
		t.Fatal("version deleted by earlier committer must be invisible")
	}
	// Deleter still active: version stays visible.
	m.Begin(12)
	if !m.Visible(snap, 10, 12) {
		t.Fatal("active deleter must not hide the version")
	}
	// Deleter aborted: version stays visible.
	m.Abort(12)
	if !m.Visible(snap, 10, 12) {
		t.Fatal("aborted deleter must not hide the version")
	}
	// Deleter committed after the snapshot began: version stays visible.
	m.Begin(13)
	m.Commit(13)
	if !m.Visible(snap, 10, 13) {
		t.Fatal("deleter committing after the snapshot must not hide the version")
	}
	m.End(snap)
}

func TestUnknownIDRule(t *testing.T) {
	m := newTestManager()
	snap := m.Begin(1)
	if !m.Visible(snap, 999, 0) {
		t.Fatal("unknown creator must count as committed at 0 (visible)")
	}
	if m.Visible(snap, 999, 998) {
		t.Fatal("unknown deleter must count as committed at 0 (dead)")
	}
	if ts, ok := m.CommittedTS(999); !ok || ts != 0 {
		t.Fatalf("unknown id: got (%d,%v), want (0,true)", ts, ok)
	}
	m.End(snap)
}

func TestAbortAfterCommitIsNoOp(t *testing.T) {
	m := newTestManager()
	m.Begin(1)
	m.Commit(1)
	m.Abort(1) // commit wins
	snap := m.Begin(2)
	if !m.Visible(snap, 1, 0) {
		t.Fatal("abort after commit must not hide committed versions")
	}
	m.End(snap)
}

func TestPruneDiscipline(t *testing.T) {
	m := newTestManager()

	// txn 1 commits, then txn 9 commits, so the pin opened next begins at
	// txn 9's timestamp: txn 1 is strictly below the horizon (prunable), txn
	// 9 exactly at it (retained — the pin still consults it). Each finished
	// transaction's snapshot is closed, as the engine does, so only the pin
	// holds the horizon down.
	s1 := m.Begin(1)
	m.Commit(1)
	m.End(s1)
	s9 := m.Begin(9)
	m.Commit(9)
	m.End(s9)
	pin := m.Begin(5)
	// Committed after the pin began: must be retained.
	s2 := m.Begin(2)
	m.Commit(2)
	m.End(s2)
	// Active status (snapshot already closed, outcome pending): never pruned.
	s3 := m.Begin(3)
	m.End(s3)
	// Aborted with undo still in flight: never pruned.
	s4 := m.Begin(4)
	m.Abort(4)
	m.End(s4)

	if n := m.Prune(); n != 1 {
		t.Fatalf("pruned %d entries, want 1 (committed txn 1)", n)
	}
	if _, ok := m.CommittedTS(2); !ok {
		t.Fatal("txn 2 entry pruned while snapshot pins it")
	}
	if m.Visible(pin, 2, 0) {
		t.Fatal("pin must still not see txn 2 after prune")
	}

	// Undo completes; the entry becomes prunable only once every snapshot
	// opened before that point has closed and the clock moved past it.
	m.AbortDone(4)
	if n := m.Prune(); n != 0 {
		t.Fatalf("pruned %d entries under pin, want 0", n)
	}
	m.End(pin)
	m.Commit(5) // also bumps the clock past txn 4's abort epoch
	if n := m.Prune(); n != 3 {
		// txn 9 and txn 2 (committed below the new horizon) and txn 4
		// (abort-done below it); txn 3 stays active, txn 5 just committed.
		t.Fatalf("pruned %d entries after pin closed, want 3", n)
	}
	if st := m.Stats(); st.StatusEntries != 2 {
		t.Fatalf("%d status entries retained, want 2 (active txn 3, fresh commit txn 5)", st.StatusEntries)
	}
}

func TestOldestActiveTSAndStats(t *testing.T) {
	m := newTestManager()
	a := m.Begin(1)
	s2 := m.Begin(2)
	m.Commit(2)
	m.End(s2)
	b := m.Begin(3)
	if got := m.OldestActiveTS(); got != a.TS {
		t.Fatalf("horizon %d, want oldest snapshot TS %d", got, a.TS)
	}
	m.End(a)
	if got := m.OldestActiveTS(); got != b.TS {
		t.Fatalf("horizon %d after End, want %d", got, b.TS)
	}
	m.End(b)
	if got, now := m.OldestActiveTS(), m.Oracle().Now(); got != now {
		t.Fatalf("horizon with no snapshots %d, want high-water mark %d", got, now)
	}

	m.Conflict()
	m.Pruned(7)
	st := m.Stats()
	if st.Begins != 3 || st.Commits != 1 || st.Conflicts != 1 || st.VersionsPruned != 7 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.ActiveSnapshots != 0 {
		t.Fatalf("%d active snapshots, want 0", st.ActiveSnapshots)
	}
}

func TestEndNilSnapshotIsSafe(t *testing.T) {
	m := newTestManager()
	m.End(nil)
	m.End(m.SnapshotOf(42)) // no such transaction: nil
}

// TestBeginNeverTearsACommit parks a committer between drawing its commit
// timestamp and publishing it, and begins a snapshot concurrently. Whatever
// the interleaving, a snapshot whose TS is at or past the commit timestamp
// must see the committer as committed from its first visibility check: a
// snapshot begun inside the window would read the committer as active now
// and as committed later — a torn read that a scan's per-creator visibility
// memo then freezes. No sleeps: when the window holds the manager's lock the
// concurrent Begin cannot finish inside it, and otherwise the test waits for
// it to.
func TestBeginNeverTearsACommit(t *testing.T) {
	m := newTestManager()
	m.Begin(1)
	drawn, release := make(chan struct{}), make(chan struct{})
	m.commitDrawn = func() {
		close(drawn)
		<-release
	}
	committed := make(chan struct{})
	go func() {
		m.Commit(1)
		close(committed)
	}()
	<-drawn

	type view struct {
		snap    *Snapshot
		visible bool
	}
	began := make(chan view)
	go func() {
		snap := m.Begin(2)
		began <- view{snap, m.Visible(snap, 1, 0)}
	}()
	var v view
	waited := false
	if m.mu.TryLock() {
		// The window is open without the lock: a Begin may complete inside
		// it, so let it.
		m.mu.Unlock()
		v, waited = <-began, true
	}
	close(release)
	<-committed
	if !waited {
		v = <-began
	}
	m.commitDrawn = nil
	commitTS, ok := m.CommittedTS(1)
	if !ok {
		t.Fatal("committer not committed after Commit returned")
	}
	if v.snap.TS >= commitTS && !v.visible {
		t.Fatalf("snapshot at TS %d (commit TS %d) saw the committer as active: torn commit", v.snap.TS, commitTS)
	}
}
