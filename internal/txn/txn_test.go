package txn

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLockSharedCompatible(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Lock(context.Background(), 1, "r", Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Lock(context.Background(), 2, "r", Shared); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
}

func TestLockExclusiveBlocks(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Lock(context.Background(), 1, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- lm.Lock(context.Background(), 2, "r", Exclusive) }()
	select {
	case <-acquired:
		t.Fatal("txn 2 should block while txn 1 holds X")
	case <-time.After(20 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	if err := <-acquired; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(2)
}

func TestLockReentrantAndUpgrade(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Lock(context.Background(), 1, "r", Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Lock(context.Background(), 1, "r", Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Lock(context.Background(), 1, "r", Exclusive); err != nil {
		t.Fatal(err) // sole holder: immediate upgrade
	}
	if err := lm.Lock(context.Background(), 1, "r", Shared); err != nil {
		t.Fatal(err) // X covers S
	}
	lm.ReleaseAll(1)
}

func TestDeadlockDetected(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Lock(context.Background(), 1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := lm.Lock(context.Background(), 2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Txn 1 waits for b (held by 2).
		if err := lm.Lock(context.Background(), 1, "b", Exclusive); err != nil {
			t.Errorf("txn 1 lock b: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	// Txn 2 requesting a closes the cycle: it must be refused immediately.
	err := lm.Lock(context.Background(), 2, "a", Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	lm.ReleaseAll(2) // victim aborts; txn 1 proceeds
	wg.Wait()
	lm.ReleaseAll(1)
}

func TestDeadlockErrorNamesVictimAndHolders(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Lock(context.Background(), 7, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := lm.Lock(context.Background(), 9, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := lm.Lock(context.Background(), 7, "b", Exclusive); err != nil {
			t.Errorf("txn 7 lock b: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	err := lm.Lock(context.Background(), 9, "a", Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	msg := err.Error()
	for _, want := range []string{"txn 9", "deadlock victim", `"a"`, "holder txn(s) [7]"} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock error %q missing %q", msg, want)
		}
	}
	lm.ReleaseAll(9)
	wg.Wait()
	lm.ReleaseAll(7)
}

func TestLockWaitCanceledRemovesWaiter(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Lock(context.Background(), 1, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- lm.Lock(ctx, 2, "r", Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	msg := err.Error()
	for _, want := range []string{"txn 2", "abandoned", `"r"`, "held by txn(s) [1]"} {
		if !strings.Contains(msg, want) {
			t.Errorf("abandoned-wait error %q missing %q", msg, want)
		}
	}
	// The abandoned waiter must be gone from the queue: a later shared
	// request blocked only by the X holder is granted the moment the holder
	// releases, with no stale exclusive waiter ahead of it.
	granted := make(chan error, 1)
	go func() { granted <- lm.Lock(context.Background(), 3, "r", Shared) }()
	time.Sleep(20 * time.Millisecond)
	lm.ReleaseAll(1)
	select {
	case err := <-granted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("shared request still blocked: canceled waiter left in queue")
	}
	lm.ReleaseAll(3)
}

func TestLockWaitDeadlineExpires(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Lock(context.Background(), 1, "r", Exclusive); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := lm.Lock(ctx, 2, "r", Exclusive)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
}

func TestFIFOFairnessNoStarvation(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Lock(context.Background(), 1, "r", Shared); err != nil {
		t.Fatal(err)
	}
	got := make(chan ID, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer queues first
		defer wg.Done()
		if err := lm.Lock(context.Background(), 2, "r", Exclusive); err != nil {
			t.Errorf("writer: %v", err)
			return
		}
		got <- 2
		lm.ReleaseAll(2)
	}()
	time.Sleep(20 * time.Millisecond)
	wg.Add(1)
	go func() { // reader queues behind the writer
		defer wg.Done()
		if err := lm.Lock(context.Background(), 3, "r", Shared); err != nil {
			t.Errorf("reader: %v", err)
			return
		}
		got <- 3
		lm.ReleaseAll(3)
	}()
	time.Sleep(20 * time.Millisecond)
	lm.ReleaseAll(1)
	first := <-got
	if first != 2 {
		t.Fatalf("writer should be served before the late reader, got %d first", first)
	}
	wg.Wait()
}

func TestManagerLifecycle(t *testing.T) {
	m := NewManager()
	id := m.Begin()
	if _, err := m.LogOp(Record{Txn: id, Kind: RecInsert, Table: "t", After: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if m.ActiveCount() != 1 {
		t.Fatal("one active txn expected")
	}
	if err := m.Commit(id); err != nil {
		t.Fatal(err)
	}
	if m.ActiveCount() != 0 {
		t.Fatal("no active txns expected")
	}
	if err := m.Commit(id); err == nil {
		t.Fatal("double commit should fail")
	}
	if _, err := m.LogOp(Record{Txn: id, Kind: RecInsert}); err == nil {
		t.Fatal("logging on finished txn should fail")
	}
}

func TestManagerAbortReturnsUndoInReverse(t *testing.T) {
	m := NewManager()
	id := m.Begin()
	m.LogOp(Record{Txn: id, Kind: RecInsert, Table: "t", After: []byte("1")})
	m.LogOp(Record{Txn: id, Kind: RecUpdate, Table: "t", Before: []byte("1"), After: []byte("2")})
	undo, wrote, err := m.PrepareAbort(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FinishAbort(id); err != nil {
		t.Fatal(err)
	}
	if len(undo) != 2 || undo[0].Kind != RecUpdate || undo[1].Kind != RecInsert || !wrote {
		t.Fatalf("undo order wrong or no write reported: %+v, wrote %v", undo, wrote)
	}
	reader := m.Begin()
	if undo, wrote, err := m.PrepareAbort(reader); err != nil || len(undo) != 0 || wrote {
		t.Fatalf("a reader's abort: undo %v, wrote %v, err %v; want neither", undo, wrote, err)
	}
	m.FinishAbort(reader)
}

// TestManagerRollbackToUndoesStatement: RollbackTo hands the records logged
// after the undo point to undo newest first and drops each once undone; an
// undo error leaves the records not yet undone on the chain, for the whole
// transaction's rollback. The transaction stays active, and having undone
// records it commits, or aborts, as a writer even with an empty chain.
func TestManagerRollbackToUndoesStatement(t *testing.T) {
	m := NewManager()
	wrote := map[ID]bool{}
	m.OnCommit = func(id ID, w bool) { wrote[id] = w }
	id := m.Begin()
	logOp := func(v string) {
		t.Helper()
		if _, err := m.LogOp(Record{Txn: id, Kind: RecInsert, Table: "t", After: []byte(v)}); err != nil {
			t.Fatal(err)
		}
	}
	logOp("kept")
	mark := m.UndoPoint(id)
	if mark != 1 {
		t.Fatalf("undo point %d, want 1", mark)
	}
	logOp("a")
	logOp("b")
	logOp("c")
	var undone []string
	failOn := "b"
	undo := func(r Record) error {
		if string(r.After) == failOn {
			return fmt.Errorf("undo of %s failed", r.After)
		}
		undone = append(undone, string(r.After))
		return nil
	}
	if err := m.RollbackTo(id, mark, undo); err == nil {
		t.Fatal("a failing undo did not fail RollbackTo")
	}
	if fmt.Sprint(undone) != "[c]" || m.UndoPoint(id) != 3 {
		t.Fatalf("after a failed undo: undone %v, chain %d long; want [c] and 3", undone, m.UndoPoint(id))
	}
	failOn = ""
	if err := m.RollbackTo(id, mark, undo); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(undone) != "[c b a]" || m.UndoPoint(id) != mark {
		t.Fatalf("undone %v, chain %d long; want [c b a] and %d", undone, m.UndoPoint(id), mark)
	}
	if err := m.RollbackTo(id, mark+1, undo); err == nil {
		t.Fatal("an undo point past the chain's end was accepted")
	}
	if err := m.RollbackTo(id, 0, undo); err != nil || fmt.Sprint(undone) != "[c b a kept]" {
		t.Fatalf("rolling back to 0: %v, undone %v", err, undone)
	}
	if err := m.Commit(id); err != nil || !wrote[id] {
		t.Fatalf("commit: %v, wrote %v; want a writer's commit", err, wrote[id])
	}
	aborted := m.Begin()
	if _, err := m.LogOp(Record{Txn: aborted, Kind: RecInsert, Table: "t", After: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := m.RollbackTo(aborted, 0, undo); err != nil {
		t.Fatal(err)
	}
	if undo, w, err := m.PrepareAbort(aborted); err != nil || len(undo) != 0 || !w {
		t.Fatalf("abort after a statement rollback: undo %v, wrote %v, err %v; want an empty writer's undo", undo, w, err)
	}
	m.FinishAbort(aborted)
}

func TestManagerOnCommitReportsWrote(t *testing.T) {
	m := NewManager()
	got := map[ID]bool{}
	m.OnCommit = func(id ID, wrote bool) { got[id] = wrote }
	reader, writer := m.Begin(), m.Begin()
	if _, err := m.LogOp(Record{Txn: writer, Kind: RecInsert, Table: "t", After: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	m.Commit(reader)
	m.Commit(writer)
	if got[reader] || !got[writer] {
		t.Fatalf("wrote flags: reader=%v writer=%v, want false/true", got[reader], got[writer])
	}
}

// TestReadOnlyCommitSkipsDurableLog: with a durable log attached, only a
// transaction that logged a data or DDL record appends a commit record and
// waits for its flush; the rest commit without touching the log. OnCommit
// still runs for every one of them.
func TestReadOnlyCommitSkipsDurableLog(t *testing.T) {
	w, _ := openWAL(t, t.TempDir(), false)
	defer w.Close()
	m := NewManager()
	m.SetDurable(w)
	committed := map[ID]bool{}
	m.OnCommit = func(id ID, wrote bool) { committed[id] = true }

	reader, ddl, writer := m.Begin(), m.Begin(), m.Begin()
	if err := m.Commit(reader); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Commits != 0 || st.Syncs != 0 {
		t.Fatalf("read-only commit touched the log: %+v", st)
	}
	if err := m.LogDDL(ddl, Record{Kind: RecCreateTable, Table: "t"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LogOp(Record{Txn: writer, Kind: RecInsert, Table: "t", After: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []ID{ddl, writer} {
		if err := m.Commit(id); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.Commits != 2 || st.Syncs == 0 || st.FlushedLSN != st.EndLSN {
		t.Fatalf("DDL and data commits must append and flush: %+v", st)
	}
	if len(committed) != 3 {
		t.Fatalf("OnCommit ran for %v, want all three transactions", committed)
	}
	// A DDL mark does not outlive its transaction: an abort clears it.
	aborted := m.Begin()
	if err := m.LogDDL(aborted, Record{Kind: RecDropTable, Table: "t"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.PrepareAbort(aborted); err != nil {
		t.Fatal(err)
	}
	if err := m.FinishAbort(aborted); err != nil {
		t.Fatal(err)
	}
	if len(m.ddl) != 0 {
		t.Fatalf("DDL marks left after commit and abort: %v", m.ddl)
	}
}

func TestConcurrentTransactionsSerializeOnLock(t *testing.T) {
	m := NewManager()
	const n = 8
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := m.Begin()
			if err := m.Locks.Lock(context.Background(), id, "counter", Exclusive); err != nil {
				t.Errorf("lock: %v", err)
				return
			}
			v := counter
			time.Sleep(time.Millisecond)
			counter = v + 1
			m.Commit(id)
		}()
	}
	wg.Wait()
	if counter != n {
		t.Fatalf("counter=%d, want %d (lost updates)", counter, n)
	}
}
