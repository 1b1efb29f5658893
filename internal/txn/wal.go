package txn

import (
	"fmt"
	"slices"
	"sync"

	"stagedb/internal/storage"
)

// RecordKind enumerates WAL record types.
type RecordKind uint8

// WAL record kinds.
const (
	// RecBegin is never written — a transaction begins at its first data
	// record — but keeps its value: kinds are on-disk format.
	RecBegin RecordKind = iota
	RecCommit
	RecAbort
	RecInsert
	RecDelete
	RecUpdate
	RecCheckpoint
	// RecAllocPage logs a heap growing by one page (Table names the heap,
	// RID.Page the new page) so recovery can rebuild page lists and the data
	// file's allocation state.
	RecAllocPage
	// RecFreePage logs a page returned to the data file's free list (DROP
	// TABLE).
	RecFreePage
	// RecCreateTable carries a gob CheckpointTable in After: DDL is logged so
	// the catalog is recoverable without a separate metadata file.
	RecCreateTable
	// RecCreateIndex carries a gob CheckpointIndex in After; Table names the
	// indexed table.
	RecCreateIndex
	// RecDropTable drops the table named in Table.
	RecDropTable
)

func (k RecordKind) String() string {
	switch k {
	case RecBegin:
		return "BEGIN"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecInsert:
		return "INSERT"
	case RecDelete:
		return "DELETE"
	case RecUpdate:
		return "UPDATE"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecAllocPage:
		return "ALLOCPAGE"
	case RecFreePage:
		return "FREEPAGE"
	case RecCreateTable:
		return "CREATETABLE"
	case RecCreateIndex:
		return "CREATEINDEX"
	case RecDropTable:
		return "DROPTABLE"
	}
	return fmt.Sprintf("RecordKind(%d)", int(k))
}

// Record is one logical WAL entry. Insert carries the after-image, Delete
// the before-image, Update both. A compensation log record (CLR) describes
// the page operation that undid the record at UndoOf; recovery redoes CLRs
// like ordinary records but never undoes them.
type Record struct {
	LSN    uint64
	Txn    ID
	Kind   RecordKind
	Table  string
	RID    storage.RID
	Before []byte
	After  []byte
	CLR    bool
	UndoOf uint64 // LSN of the record this CLR compensates
}

// Manager hands out transaction IDs and couples the lock manager with the
// log. The engine calls Begin, logs operations through LogOp, and finishes
// with Commit or PrepareAbort/FinishAbort.
//
// There is one log, the DurableWAL. With none attached (volatile mode) a
// transaction's data records live only in the active table, for undo, and
// are dropped when it ends: nothing is retained per finished transaction.
// With SetDurable, data records also flow to the on-disk log (earning real
// LSNs) and Commit blocks until the commit record's group-commit flush
// reaches stable storage.
type Manager struct {
	mu     sync.Mutex
	next   ID
	active map[ID][]Record // per-txn data records, for undo
	ddl    map[ID]bool     // active txns that logged a DDL record (LogDDL)
	undid  map[ID]bool     // active txns that rolled records back (RollbackTo)

	Locks *LockManager

	durable *DurableWAL

	// OnCommit, when set, runs after a transaction's commit record is
	// durable (at once, in volatile mode) and before its locks are
	// released; wrote says whether the transaction logged any data record.
	// The MVCC layer hooks it to stamp the commit timestamp: stamping
	// before lock release guarantees any later snapshot sees either all of
	// the transaction's versions or none. Set once at construction, before
	// concurrent use.
	OnCommit func(id ID, wrote bool)
}

// NewManager returns a manager with a fresh lock manager and no log.
func NewManager() *Manager {
	return &Manager{
		next:   1,
		active: make(map[ID][]Record),
		ddl:    make(map[ID]bool),
		undid:  make(map[ID]bool),
		Locks:  NewLockManager(),
	}
}

// SetDurable attaches the on-disk log. From here on records are durable.
func (m *Manager) SetDurable(d *DurableWAL) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.durable = d
}

// Durable returns the attached on-disk log, or nil in volatile mode.
func (m *Manager) Durable() *DurableWAL {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.durable
}

// SetNext raises the next transaction id — recovery restores the counter so
// restarted databases never reuse an id already in the log.
func (m *Manager) SetNext(id ID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id > m.next {
		m.next = id
	}
}

// Begin starts a transaction.
func (m *Manager) Begin() ID {
	m.mu.Lock()
	id := m.next
	m.next++
	m.active[id] = nil
	m.mu.Unlock()
	// No begin record: the log infers begins from a txn's first data record;
	// logging them would cost a frame per txn for nothing.
	return id
}

// LogOp records one data operation for txn, returning its LSN (0 in
// volatile mode, where there is no log).
func (m *Manager) LogOp(rec Record) (uint64, error) {
	m.mu.Lock()
	if _, ok := m.active[rec.Txn]; !ok {
		m.mu.Unlock()
		return 0, fmt.Errorf("txn: %d is not active", rec.Txn)
	}
	d := m.durable
	m.mu.Unlock()
	var lsn uint64
	if d != nil {
		var err error
		if lsn, err = d.Append(rec); err != nil {
			return 0, err
		}
		rec.LSN = lsn
	}
	m.mu.Lock()
	if _, ok := m.active[rec.Txn]; !ok {
		m.mu.Unlock()
		return 0, fmt.Errorf("txn: %d ended while logging", rec.Txn)
	}
	m.active[rec.Txn] = append(m.active[rec.Txn], rec)
	m.mu.Unlock()
	return lsn, nil
}

// LogDDL appends a DDL record (create/drop table, create index, the pages a
// drop frees) on behalf of txn id. DDL records carry no transaction id —
// recovery redoes them unconditionally — so the manager notes that id
// logged one: its Commit must then wait for the log like any writer's.
func (m *Manager) LogDDL(id ID, rec Record) error {
	m.mu.Lock()
	if _, ok := m.active[id]; !ok {
		m.mu.Unlock()
		return fmt.Errorf("txn: %d is not active", id)
	}
	m.ddl[id] = true
	d := m.durable
	m.mu.Unlock()
	if d == nil {
		return nil
	}
	_, err := d.Append(rec)
	return err
}

// AppendCLR writes a compensation record during rollback. CLRs belong to no
// active list (they are never undone) and return LSN 0 in volatile mode.
func (m *Manager) AppendCLR(rec Record) (uint64, error) {
	m.mu.Lock()
	d := m.durable
	m.mu.Unlock()
	if d == nil {
		return 0, nil
	}
	rec.CLR = true
	return d.Append(rec)
}

// Commit logs the commit, waits for it to reach stable storage (durable
// mode), and releases the transaction's locks. On a flush error the locks
// are still released and the transaction is NOT acknowledged: its records
// carry no commit, so recovery rolls it back.
//
// A transaction that logged neither a data record nor a DDL record commits
// without touching the log: it has nothing to make durable, and everything
// it read was durable before it became visible (OnCommit runs only after a
// writer's commit record is on stable storage), so no crash can take back
// what it saw.
func (m *Manager) Commit(id ID) error {
	m.mu.Lock()
	ops, ok := m.active[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("txn: %d is not active", id)
	}
	wrote := len(ops) > 0 || m.undid[id]
	logged := wrote || m.ddl[id]
	delete(m.active, id)
	delete(m.ddl, id)
	delete(m.undid, id)
	d := m.durable
	m.mu.Unlock()
	var err error
	if d != nil && logged {
		err = d.Commit(Record{Txn: id, Kind: RecCommit})
	}
	if err == nil && m.OnCommit != nil {
		m.OnCommit(id, wrote)
	}
	m.Locks.ReleaseAll(id)
	return err
}

// PrepareAbort removes the transaction from the active table and returns
// its data records newest-first for the engine to undo, and whether it
// wrote at all — records a RollbackTo has since undone count. Locks stay
// held until FinishAbort so no one observes half-undone state.
func (m *Manager) PrepareAbort(id ID) (undo []Record, wrote bool, err error) {
	m.mu.Lock()
	ops, ok := m.active[id]
	if !ok {
		m.mu.Unlock()
		return nil, false, fmt.Errorf("txn: %d is not active", id)
	}
	wrote = len(ops) > 0 || m.undid[id]
	delete(m.active, id)
	delete(m.ddl, id)
	delete(m.undid, id)
	m.mu.Unlock()
	undo = make([]Record, 0, len(ops))
	for i := len(ops) - 1; i >= 0; i-- {
		undo = append(undo, ops[i])
	}
	return undo, wrote, nil
}

// UndoPoint returns the length of transaction id's undo chain: the point a
// statement starting now rolls back to if it fails (RollbackTo).
func (m *Manager) UndoPoint(id ID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active[id])
}

// RollbackTo undoes the data records transaction id logged after undo point
// mark, newest first, passing each to undo (which applies it and writes its
// CLR), and drops each from the undo chain once undone: a statement's
// rollback. The transaction stays active and keeps its locks. On an undo
// error the chain still holds the records not undone, so a rollback of the
// whole transaction picks up where this one stopped.
//
// A transaction that rolled records back counts as a writer even
// with an empty chain: heap records and readers' copies of them still
// carry its id, so its commit must stamp a status entry, not forget it.
func (m *Manager) RollbackTo(id ID, mark int, undo func(Record) error) error {
	m.mu.Lock()
	ops, ok := m.active[id]
	if !ok || mark < 0 || mark > len(ops) {
		m.mu.Unlock()
		return fmt.Errorf("txn: %d has no undo point %d", id, mark)
	}
	later := slices.Clone(ops[mark:])
	if len(later) > 0 {
		m.undid[id] = true
	}
	m.mu.Unlock()
	for i := len(later) - 1; i >= 0; i-- {
		if err := undo(later[i]); err != nil {
			return err
		}
		m.mu.Lock()
		m.active[id] = m.active[id][:mark+i]
		m.mu.Unlock()
	}
	return nil
}

// FinishAbort logs the abort record (after the engine applied the undo, so
// an abort record in the log means the undo's CLRs precede it) and releases
// the transaction's locks.
func (m *Manager) FinishAbort(id ID) error {
	m.mu.Lock()
	d := m.durable
	m.mu.Unlock()
	var err error
	if d != nil {
		_, err = d.Append(Record{Txn: id, Kind: RecAbort})
	}
	m.Locks.ReleaseAll(id)
	return err
}

// NextID peeks at the next transaction id without consuming it — the
// checkpoint snapshots it so restarts never reuse an id already in the log.
func (m *Manager) NextID() ID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.next
}

// ActiveCount reports transactions in flight.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// ActiveSnapshot copies the active-transaction table — the undo chains a
// checkpoint carries into the rotated log so recovery can roll back txns
// whose early records were rotated away.
func (m *Manager) ActiveSnapshot() map[ID][]Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[ID][]Record, len(m.active))
	for id, ops := range m.active {
		out[id] = append([]Record(nil), ops...)
	}
	return out
}
