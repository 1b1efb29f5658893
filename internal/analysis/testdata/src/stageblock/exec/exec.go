// Golden file for the stageblock analyzer, in a package whose import path
// ends in exec (in scope): no blocking operation may run while a mutex is
// held; the trySend/tryNext non-blocking protocol is the legal alternative.
package exec

import (
	"sync"
	"time"
)

// box couples a mutex with a channel the way exchange state does.
type box struct {
	mu sync.Mutex
	ch chan int
}

// exchange mimics the real exchange's non-blocking entry point.
type exchange struct{}

// trySend is non-blocking but acquires the exchange lock internally.
func (e *exchange) trySend(v int) int { return 0 }

// sendUnderLock parks the worker on the channel while holding the lock.
func sendUnderLock(b *box) {
	b.mu.Lock()
	b.ch <- 1 // want `channel send while mutex b.mu is held`
	b.mu.Unlock()
}

// recvUnderDeferredLock holds the lock for the whole body via defer.
func recvUnderDeferredLock(b *box) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return <-b.ch // want `channel receive while mutex b.mu is held`
}

// selectUnderLock has no default case, so the select itself blocks.
func selectUnderLock(b *box) {
	b.mu.Lock()
	select { // want `blocking select \(no default case\) while mutex b.mu is held`
	case v := <-b.ch:
		_ = v
	}
	b.mu.Unlock()
}

// selectTwoClausesUnderLock blocks on either clause; the select is one
// diagnostic, not one per clause.
func selectTwoClausesUnderLock(b *box, done chan struct{}) {
	b.mu.Lock()
	select { // want `blocking select \(no default case\) while mutex b.mu is held`
	case b.ch <- 1:
	case <-done:
	}
	b.mu.Unlock()
}

// sendAfterEarlyUnlock unlocks only on the early-return branch: the lock is
// still held on the path that reaches the send.
func sendAfterEarlyUnlock(b *box, early bool) {
	b.mu.Lock()
	if early {
		b.mu.Unlock()
		return
	}
	b.ch <- 1 // want `channel send while mutex b.mu is held`
	b.mu.Unlock()
}

// sleepUnderLock stalls every other worker queued on the lock.
func sleepUnderLock(b *box) {
	b.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while mutex b.mu is held`
	b.mu.Unlock()
}

// blockingCallUnderLock calls a method that blocks by contract.
func blockingCallUnderLock(b *box, wg *sync.WaitGroup) {
	b.mu.Lock()
	wg.Wait() // want `call to blocking Wait while mutex b.mu is held`
	b.mu.Unlock()
}

// trySendUnderLock risks lock-order inversion: trySend takes the exchange
// lock while b.mu is held.
func trySendUnderLock(b *box, e *exchange) {
	b.mu.Lock()
	_ = e.trySend(1) // want `call to trySend \(acquires the exchange lock\) while mutex b.mu is held`
	b.mu.Unlock()
}

// okNonBlockingSelect is the parking protocol: select with a default case is
// non-blocking and legal under the lock.
func okNonBlockingSelect(b *box) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case b.ch <- 1:
		return true
	default:
		return false
	}
}

// okTrySendShape is the exchange's trySend: a done check, then a select
// with a default under the lock, unlocking on each clause before the wakeup.
func okTrySendShape(b *box, done chan struct{}, wake func()) bool {
	select {
	case <-done:
		return false
	default:
	}
	b.mu.Lock()
	select {
	case b.ch <- 1:
		b.mu.Unlock()
		wake()
		return true
	default:
		b.mu.Unlock()
		return false
	}
}

// okSendAfterUnlock moves the blocking operation outside the critical
// section.
func okSendAfterUnlock(b *box) {
	b.mu.Lock()
	v := 1
	b.mu.Unlock()
	b.ch <- v
}

// okTrySendUnlocked calls the lock-taking entry point with no lock held.
func okTrySendUnlocked(e *exchange) int {
	return e.trySend(1)
}

// okGoroutineUnderLock launches work elsewhere; the goroutine body runs with
// its own empty hold set.
func okGoroutineUnderLock(b *box) {
	b.mu.Lock()
	go func() {
		b.ch <- 1
	}()
	b.mu.Unlock()
}
