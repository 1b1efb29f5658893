// Package txn provides transactions: a strict two-phase-locking lock manager
// with wait-for-graph deadlock detection, a write-ahead log with logical
// redo/undo records, and recovery analysis.
//
// The paper (§3.2) notes that a monolithic design makes deadlock-free code
// hard because "accesses to shared resources may not be contained within a
// single module"; here the lock table is one self-contained module that the
// staged engine's execute stage owns exclusively. Under MVCC the lock table
// shrinks to write-write ordering: snapshot readers take no table locks, so
// only writers (and DDL) ever wait here.
package txn

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ID identifies a transaction.
type ID uint64

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// ErrDeadlock is returned to a transaction chosen as a deadlock victim. The
// caller must abort that transaction. The wrapping error names the victim,
// the contested resource, and the holder transaction ids.
var ErrDeadlock = errors.New("txn: deadlock detected, transaction chosen as victim")

type lockState struct {
	holders map[ID]Mode
	waiters []*waiter
}

type waiter struct {
	txn  ID
	mode Mode
	ok   chan struct{} // closed when granted
	err  error
}

// LockManager grants shared/exclusive locks on named resources to
// transactions. Locks are held until ReleaseAll (strict 2PL). A lock request
// that would close a cycle in the wait-for graph fails immediately with
// ErrDeadlock for the requester; a blocked request is abandoned — waiter
// dequeued, wait-for edges dropped — when its context is canceled.
type LockManager struct {
	mu    sync.Mutex
	locks map[string]*lockState
	// waitsFor[a] = set of txns a is waiting on.
	waitsFor map[ID]map[ID]bool
	held     map[ID]map[string]bool
}

// NewLockManager returns an empty lock manager.
func NewLockManager() *LockManager {
	return &LockManager{
		locks:    make(map[string]*lockState),
		waitsFor: make(map[ID]map[ID]bool),
		held:     make(map[ID]map[string]bool),
	}
}

// Lock acquires the resource in the given mode for txn, blocking while
// incompatible locks are held. Re-acquiring a held lock is a no-op; a Shared
// holder requesting Exclusive upgrades when possible. If ctx is canceled or
// its deadline expires while blocked, the waiter is removed from the queue
// (waking anything it was holding back) and the ctx error is returned,
// wrapped with the resource and current holder ids; a grant that raced the
// cancellation is kept and reported as success, leaving the next context
// check to the caller.
func (lm *LockManager) Lock(ctx context.Context, txn ID, resource string, mode Mode) error {
	lm.mu.Lock()
	ls, ok := lm.locks[resource]
	if !ok {
		ls = &lockState{holders: make(map[ID]Mode)}
		lm.locks[resource] = ls
	}

	if cur, holding := ls.holders[txn]; holding {
		if cur == Exclusive || mode == Shared {
			lm.mu.Unlock()
			return nil // already sufficient
		}
		// Upgrade S -> X: grantable when txn is the only holder and nothing
		// is queued ahead.
		if len(ls.holders) == 1 && len(ls.waiters) == 0 {
			ls.holders[txn] = Exclusive
			lm.mu.Unlock()
			return nil
		}
	}

	if lm.grantableLocked(ls, txn, mode) && len(ls.waiters) == 0 {
		ls.holders[txn] = mode
		lm.noteHeldLocked(txn, resource)
		lm.mu.Unlock()
		return nil
	}

	// Would block: check for a deadlock before waiting.
	blockers := lm.blockersLocked(ls, txn, mode)
	if lm.wouldDeadlockLocked(txn, blockers) {
		holders := holderIDsLocked(ls, txn)
		lm.mu.Unlock()
		return fmt.Errorf("txn %d chosen as deadlock victim: %s lock on %q blocked by holder txn(s) %v: %w",
			txn, mode, resource, holders, ErrDeadlock)
	}
	w := &waiter{txn: txn, mode: mode, ok: make(chan struct{})}
	ls.waiters = append(ls.waiters, w)
	if lm.waitsFor[txn] == nil {
		lm.waitsFor[txn] = make(map[ID]bool)
	}
	for b := range blockers {
		lm.waitsFor[txn][b] = true
	}
	lm.mu.Unlock()

	select {
	case <-w.ok:
		return w.err
	case <-ctx.Done():
		lm.mu.Lock()
		select {
		case <-w.ok:
			// Granted (or failed) between ctx firing and us reacquiring the
			// table lock: the outcome stands; the caller's next context check
			// observes the cancellation.
			lm.mu.Unlock()
			return w.err
		default:
		}
		// Abandon the wait: dequeue, drop our wait-for edges, and wake
		// anything our queue slot was holding back.
		kept := ls.waiters[:0]
		for _, q := range ls.waiters {
			if q != w {
				kept = append(kept, q)
			}
		}
		ls.waiters = kept
		delete(lm.waitsFor, txn)
		lm.wakeLocked(resource, ls)
		holders := holderIDsLocked(ls, txn)
		lm.mu.Unlock()
		return fmt.Errorf("txn %d: %s lock wait on %q abandoned (held by txn(s) %v): %w",
			txn, mode, resource, holders, ctx.Err())
	}
}

// holderIDsLocked returns the ids currently holding ls, other than txn,
// sorted for deterministic error messages.
func holderIDsLocked(ls *lockState, txn ID) []ID {
	out := make([]ID, 0, len(ls.holders))
	for h := range ls.holders {
		if h != txn {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// grantableLocked reports whether txn could hold resource in mode alongside
// the current holders.
func (lm *LockManager) grantableLocked(ls *lockState, txn ID, mode Mode) bool {
	for holder, held := range ls.holders {
		if holder == txn {
			continue
		}
		if mode == Exclusive || held == Exclusive {
			return false
		}
	}
	return true
}

// blockersLocked returns the set of transactions txn would wait on.
func (lm *LockManager) blockersLocked(ls *lockState, txn ID, mode Mode) map[ID]bool {
	out := make(map[ID]bool)
	for holder, held := range ls.holders {
		if holder == txn {
			continue
		}
		if mode == Exclusive || held == Exclusive {
			out[holder] = true
		}
	}
	// Waiters queued ahead also block (FIFO fairness).
	for _, w := range ls.waiters {
		if w.txn != txn {
			out[w.txn] = true
		}
	}
	return out
}

// wouldDeadlockLocked reports whether making txn wait on blockers closes a
// cycle in the wait-for graph.
func (lm *LockManager) wouldDeadlockLocked(txn ID, blockers map[ID]bool) bool {
	// DFS from each blocker following waitsFor; a path back to txn is a cycle.
	var stack []ID
	seen := make(map[ID]bool)
	for b := range blockers {
		stack = append(stack, b)
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == txn {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		for next := range lm.waitsFor[cur] {
			stack = append(stack, next)
		}
	}
	return false
}

func (lm *LockManager) noteHeldLocked(txn ID, resource string) {
	if lm.held[txn] == nil {
		lm.held[txn] = make(map[string]bool)
	}
	lm.held[txn][resource] = true
}

// ReleaseAll releases every lock txn holds and cancels its waits, waking any
// waiters that become grantable.
func (lm *LockManager) ReleaseAll(txn ID) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	delete(lm.waitsFor, txn)
	for resource := range lm.held[txn] {
		if ls, ok := lm.locks[resource]; ok {
			delete(ls.holders, txn)
			lm.wakeLocked(resource, ls)
		}
	}
	delete(lm.held, txn)
	// Remove txn's queued waiters everywhere (it may have been waiting when
	// aborted by deadlock elsewhere).
	for resource, ls := range lm.locks {
		changed := false
		kept := ls.waiters[:0]
		for _, w := range ls.waiters {
			if w.txn == txn {
				w.err = fmt.Errorf("txn: %d released while waiting", txn)
				close(w.ok)
				changed = true
				continue
			}
			kept = append(kept, w)
		}
		ls.waiters = kept
		if changed {
			lm.wakeLocked(resource, ls)
		}
	}
	// Drop edges pointing at txn.
	for _, edges := range lm.waitsFor {
		delete(edges, txn)
	}
}

// wakeLocked grants queued waiters in FIFO order while compatible.
func (lm *LockManager) wakeLocked(resource string, ls *lockState) {
	for len(ls.waiters) > 0 {
		w := ls.waiters[0]
		if !lm.grantableLocked(ls, w.txn, w.mode) {
			return
		}
		ls.waiters = ls.waiters[1:]
		ls.holders[w.txn] = w.mode
		lm.noteHeldLocked(w.txn, resource)
		// The waiter no longer waits on anyone via this resource.
		delete(lm.waitsFor, w.txn)
		close(w.ok)
	}
}

// Waiters reports how many lock requests are queued on resource
// (diagnostics).
func (lm *LockManager) Waiters(resource string) int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if ls := lm.locks[resource]; ls != nil {
		return len(ls.waiters)
	}
	return 0
}

// HeldBy reports the resources txn currently holds (diagnostics).
func (lm *LockManager) HeldBy(txn ID) []string {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	var out []string
	for r := range lm.held[txn] {
		out = append(out, r)
	}
	return out
}
