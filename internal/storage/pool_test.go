package storage

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// poolWait bounds every wait in the pool concurrency tests: a Pin that is
// stuck behind another page's read shows up as a timeout, not a hang.
const poolWait = 5 * time.Second

// stampedStore returns a store of n written pages, each formatted with its
// own id, so a pinned page's ID() tells which image the frame holds.
func stampedStore(t testing.TB, n int) (*Store, []PageID) {
	t.Helper()
	s := NewStore()
	ids := make([]PageID, n)
	var pg Page
	for i := range ids {
		ids[i] = s.Allocate()
		pg.InitPage(ids[i])
		if err := s.WritePage(ids[i], pg.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	return s, ids
}

// gatedStore is a Store whose first read of one page signals entered, then
// waits until release is closed and returns fail (nil: the page's image).
// Later reads of that page, and all reads of other pages, pass straight
// through.
type gatedStore struct {
	*Store
	gate      PageID
	fail      error
	entered   chan struct{}
	release   chan struct{}
	once      sync.Once
	gateReads atomic.Int32
}

func newGatedStore(t *testing.T, s *Store, gate PageID, fail error) *gatedStore {
	g := &gatedStore{Store: s, gate: gate, fail: fail,
		entered: make(chan struct{}, 1), release: make(chan struct{})}
	t.Cleanup(g.open) // a failed test must not strand the reader
	return g
}

// open lets the gated read finish. Idempotent.
func (g *gatedStore) open() { g.once.Do(func() { close(g.release) }) }

func (g *gatedStore) ReadPage(id PageID, dst []byte) error {
	if id == g.gate && g.gateReads.Add(1) == 1 {
		g.entered <- struct{}{}
		<-g.release
		if g.fail != nil {
			return g.fail
		}
	}
	return g.Store.ReadPage(id, dst)
}

// waitEntered waits until the gated read has started.
func (g *gatedStore) waitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(poolWait):
		t.Fatalf("the read of page %d never started", g.gate)
	}
}

// waitPins waits until page id is mapped with want pins. It never blocks
// on the pool's mutex, so a Pool that holds it across a read fails the
// wait instead of hanging it.
func waitPins(t *testing.T, p *Pool, id PageID, want int) {
	t.Helper()
	deadline := time.Now().Add(poolWait)
	for time.Now().Before(deadline) {
		if p.mu.TryLock() {
			f := p.frames[id]
			reached := f != nil && f.pins == want
			p.mu.Unlock()
			if reached {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("page %d never reached %d pins", id, want)
}

// pinResult is one Pin's outcome, sent from the goroutine that made it.
type pinResult struct {
	pg  *Page
	err error
}

func pinAsync(p *Pool, id PageID) <-chan pinResult {
	ch := make(chan pinResult, 1)
	go func() {
		pg, err := p.Pin(id)
		ch <- pinResult{pg, err}
	}()
	return ch
}

func awaitPin(t *testing.T, ch <-chan pinResult, what string) pinResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(poolWait):
		t.Fatalf("%s: Pin did not return within %v", what, poolWait)
		return pinResult{}
	}
}

// TestPoolMissBlocksOnlyItsPage: while one Pin sits inside the store read
// of its page, a Pin/Unpin of a resident page and a miss on another page
// both finish. The read runs outside the pool's mutex.
func TestPoolMissBlocksOnlyItsPage(t *testing.T) {
	base, ids := stampedStore(t, 3)
	resident, blocked, other := ids[0], ids[1], ids[2]
	store := newGatedStore(t, base, blocked, nil)
	pool := NewPool(store, 4)
	if _, err := pool.Pin(resident); err != nil {
		t.Fatal(err)
	}
	pool.Unpin(resident, false)

	loader := pinAsync(pool, blocked)
	store.waitEntered(t)

	done := make(chan error, 1)
	go func() {
		for _, id := range []PageID{resident, other} {
			pg, err := pool.Pin(id)
			if err != nil {
				done <- err
				return
			}
			if pg.ID() != id {
				done <- errors.New("pinned page holds the wrong image")
				return
			}
			pool.Unpin(id, false)
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(poolWait):
		t.Fatalf("a hit and a miss on other pages waited %v behind page %d's read", poolWait, blocked)
	}

	store.open()
	r := awaitPin(t, loader, "loader")
	if r.err != nil || r.pg.ID() != blocked {
		t.Fatalf("loader: page %v, err %v", r.pg, r.err)
	}
	pool.Unpin(blocked, false)
}

// TestPoolPinsShareInFlightRead: a second Pin of a page whose read is in
// flight waits for that read instead of issuing its own, and both get the
// same page with its bytes in.
func TestPoolPinsShareInFlightRead(t *testing.T) {
	base, ids := stampedStore(t, 1)
	id := ids[0]
	store := newGatedStore(t, base, id, nil)
	pool := NewPool(store, 4)

	first := pinAsync(pool, id)
	store.waitEntered(t)
	second := pinAsync(pool, id)
	waitPins(t, pool, id, 2)
	store.open()

	a, b := awaitPin(t, first, "loader"), awaitPin(t, second, "waiter")
	if a.err != nil || b.err != nil {
		t.Fatalf("loader err %v, waiter err %v", a.err, b.err)
	}
	if a.pg != b.pg {
		t.Fatal("the two Pins of one page returned different frames")
	}
	if a.pg.ID() != id {
		t.Fatalf("shared page reads id %d, want %d", a.pg.ID(), id)
	}
	if n := base.Reads(); n != 1 {
		t.Fatalf("store served %d reads for two Pins of one page, want 1", n)
	}
	if n := pool.Misses(); n != 1 {
		t.Fatalf("pool counted %d misses, want 1", n)
	}
	pool.Unpin(id, false)
	pool.Unpin(id, false)
}

// TestPoolFailedReadFailsEveryWaiter: when the read of a page fails, the
// loader and a Pin waiting on it both get the error, the page is unmapped
// (the next Pin reads again), and the dead frame does not count against the
// pool's capacity.
func TestPoolFailedReadFailsEveryWaiter(t *testing.T) {
	const capacity = 4
	base, ids := stampedStore(t, capacity+1)
	id := ids[0]
	boom := errors.New("injected read failure")
	store := newGatedStore(t, base, id, boom)
	pool := NewPool(store, capacity)

	first := pinAsync(pool, id)
	store.waitEntered(t)
	second := pinAsync(pool, id)
	waitPins(t, pool, id, 2)
	store.open()

	for _, r := range []pinResult{awaitPin(t, first, "loader"), awaitPin(t, second, "waiter")} {
		if !errors.Is(r.err, boom) || r.pg != nil {
			t.Fatalf("Pin of a failed read = (%v, %v), want the read's error", r.pg, r.err)
		}
	}
	pool.mu.Lock()
	_, mapped := pool.frames[id]
	resident := len(pool.frames)
	pool.mu.Unlock()
	if mapped || resident != 0 {
		t.Fatalf("after a failed read: page mapped %v, %d frames counted, want none", mapped, resident)
	}

	pg, err := pool.Pin(id)
	if err != nil || pg.ID() != id {
		t.Fatalf("re-Pin after a failed read: id %v, err %v", pg, err)
	}
	pool.Unpin(id, false)
	if n := store.gateReads.Load(); n != 2 {
		t.Fatalf("page read %d times, want 2 (the failed read and the retry)", n)
	}

	// Every frame is usable: capacity distinct pages pin at once.
	for _, id := range ids[1:] {
		if _, err := pool.Pin(id); err != nil {
			t.Fatalf("pinning %d distinct pages into a %d-frame pool: %v", capacity, capacity, err)
		}
	}
	for _, id := range ids[1:] {
		pool.Unpin(id, false)
	}
}

// TestPoolConcurrentPinsKeepImages: goroutines pin random pages of a store
// eight times the pool, so most Pins miss and evict, some hit pages in
// flight. Every pinned page holds the image of the page asked for, and the
// store served exactly one read per miss. Run it with -race.
func TestPoolConcurrentPinsKeepImages(t *testing.T) {
	const workers, frames, pages, pins = 4, 8, 64, 2000
	store, ids := stampedStore(t, pages)
	pool := NewPool(store, frames)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < pins; i++ {
				id := ids[rng.Intn(pages)]
				pg, err := pool.Pin(id)
				if err != nil {
					t.Error(err)
					return
				}
				if got := pg.ID(); got != id {
					t.Errorf("Pin(%d) returned the image of page %d", id, got)
				}
				pool.Unpin(id, false)
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	if reads, misses := store.Reads(), pool.Misses(); reads != misses {
		t.Fatalf("store served %d reads for %d misses", reads, misses)
	}
}

// BenchmarkPoolParallelScan: two goroutines scan disjoint halves of a store
// three times the pool, reading every word of each pinned page, so every
// Pin misses and the misses of the two scans overlap. An op is one page.
func BenchmarkPoolParallelScan(b *testing.B) {
	const frames = 64
	store, ids := stampedStore(b, 3*frames)
	pool := NewPool(store, frames)
	halves := [2][]PageID{ids[:len(ids)/2], ids[len(ids)/2:]}
	var sink atomic.Uint64
	b.ResetTimer()
	var wg sync.WaitGroup
	for g, half := range halves {
		n := b.N / 2
		if g == 0 {
			n = b.N - n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum uint64
			for i := 0; i < n; i++ {
				id := half[i%len(half)]
				pg, err := pool.Pin(id)
				if err != nil {
					b.Error(err)
					return
				}
				buf := pg.Bytes()
				for off := 0; off < len(buf); off += 8 {
					sum += binary.LittleEndian.Uint64(buf[off:])
				}
				pool.Unpin(id, false)
			}
			sink.Add(sum)
		}()
	}
	wg.Wait()
}
