package exec

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// exchangeWait bounds every wait in the exchange tests: a lost wake fails
// the test instead of hanging the package.
const exchangeWait = 5 * time.Second

// rootPipeline returns a pipeline whose one task's output is root, with that
// task counted as running: the test plays its producer and calls
// p.running.Done once the producer stops. Teardown drains root because it
// is a task's output.
func rootPipeline(bufferPages int) (*pipeline, *exchange) {
	p := &pipeline{done: make(chan struct{})}
	root := newExchange(bufferPages, p.done)
	p.tasks = []*opTask{{pipe: p, out: root}}
	p.running.Add(1)
	return p, root
}

// TestExchangeWakesParkedConsumer: a consumer that found the exchange empty
// is woken by the next send, and by the producer's close.
func TestExchangeWakesParkedConsumer(t *testing.T) {
	ex := newExchange(2, make(chan struct{}))
	woken := 0
	wake := func() { woken++ }
	if pg, err := ex.tryNext(wake); pg != nil || err != errWouldBlock {
		t.Fatalf("read of an empty exchange = %v, %v; want errWouldBlock", pg, err)
	}
	sent := new(Page)
	if got := ex.trySend(sent, nil); got != sendOK {
		t.Fatalf("send into an empty exchange = %d, want sendOK", got)
	}
	if woken != 1 {
		t.Fatalf("send woke the parked consumer %d times, want 1", woken)
	}
	if pg, err := ex.tryNext(wake); pg != sent || err != nil {
		t.Fatalf("read after the send = %p, %v; want %p", pg, err, sent)
	}
	if _, err := ex.tryNext(wake); err != errWouldBlock {
		t.Fatalf("second read = %v, want errWouldBlock", err)
	}
	ex.close()
	if woken != 2 {
		t.Fatalf("close woke the parked consumer %d times in all, want 2", woken)
	}
	if pg, err := ex.tryNext(wake); pg != nil || err != nil {
		t.Fatalf("read after close = %v, %v; want end of stream", pg, err)
	}
}

// TestExchangeWakesParkedProducer: a producer that found a one-page
// exchange full is woken by the read that frees the slot, and its retry
// succeeds.
func TestExchangeWakesParkedProducer(t *testing.T) {
	ex := newExchange(1, make(chan struct{}))
	first, second := new(Page), new(Page)
	woken := 0
	wake := func() { woken++ }
	if got := ex.trySend(first, wake); got != sendOK {
		t.Fatalf("first send = %d, want sendOK", got)
	}
	if got := ex.trySend(second, wake); got != sendBlocked {
		t.Fatalf("send into a full exchange = %d, want sendBlocked", got)
	}
	if woken != 0 {
		t.Fatalf("producer woken %d times before any read", woken)
	}
	if pg, err := ex.tryNext(nil); pg != first || err != nil {
		t.Fatalf("read = %p, %v; want the first page %p", pg, err, first)
	}
	if woken != 1 {
		t.Fatalf("read woke the parked producer %d times, want 1", woken)
	}
	if got := ex.trySend(second, wake); got != sendOK {
		t.Fatalf("retried send = %d, want sendOK", got)
	}
}

// TestExchangeFailureDeliversBufferedPages: after the pipeline fails, a
// producer stops at its next send, the consumer still receives the pages
// already buffered in order, then end of stream; the client's cursor
// reports the failure with its final nil page.
func TestExchangeFailureDeliversBufferedPages(t *testing.T) {
	p, root := rootPipeline(4)
	pages := []*Page{new(Page), new(Page), new(Page)}
	for _, pg := range pages {
		if got := root.trySend(pg, nil); got != sendOK {
			t.Fatalf("send = %d, want sendOK", got)
		}
	}
	boom := errors.New("boom")
	p.fail(boom)
	if got := root.trySend(new(Page), nil); got != sendFailed {
		t.Fatalf("send after failure = %d, want sendFailed", got)
	}
	p.running.Done() // the producer stopped

	c := newStagedCursor(context.Background(), p, root)
	for i, want := range pages {
		if pg, err := c.NextPage(); pg != want || err != nil {
			t.Fatalf("page %d after failure = %p, %v; want %p", i, pg, err, want)
		}
	}
	if pg, err := c.NextPage(); pg != nil || !errors.Is(err, boom) {
		t.Fatalf("final read = %v, %v; want nil, %v", pg, err, boom)
	}
}

// TestExchangeDrainReleasesBufferedPages: teardown returns every page still
// buffered to its pool.
func TestExchangeDrainReleasesBufferedPages(t *testing.T) {
	pp := NewPagePool()
	ex := newExchange(4, make(chan struct{}))
	for range 3 {
		if got := ex.trySend(pp.Get(4), nil); got != sendOK {
			t.Fatalf("send = %d, want sendOK", got)
		}
	}
	ex.close()
	if n := pp.Outstanding(); n != 3 {
		t.Fatalf("%d pages outstanding before the drain, want 3", n)
	}
	ex.drainRelease()
	if n := pp.Outstanding(); n != 0 {
		t.Fatalf("%d pages outstanding after the drain, want 0", n)
	}
	if pg, err := ex.tryNext(nil); pg != nil || err != nil {
		t.Fatalf("read after the drain = %v, %v; want end of stream", pg, err)
	}
}

// TestExchangeHandoffUnderContention moves pages through a one-page
// exchange between two goroutines that park on one-slot channels the way
// a task and the cursor do. Every page arrives, in order; a lost wake in
// either direction shows as a timed-out park.
func TestExchangeHandoffUnderContention(t *testing.T) {
	const n = 2000
	ex := newExchange(1, make(chan struct{}))
	pages := make([]*Page, n)
	for i := range pages {
		pages[i] = new(Page)
	}
	produced := make(chan struct{})
	defer func() { <-produced }()
	go func() {
		defer close(produced)
		defer ex.close()
		wake := make(chan struct{}, 1)
		waker := func() { ping(wake) }
		for _, pg := range pages {
			for ex.trySend(pg, waker) == sendBlocked {
				select {
				case <-wake:
				case <-time.After(exchangeWait):
					t.Error("producer parked on a full exchange was never woken")
					return
				}
			}
		}
	}()
	wake := make(chan struct{}, 1)
	waker := func() { ping(wake) }
	for i := 0; ; {
		pg, err := ex.tryNext(waker)
		if err == errWouldBlock {
			select {
			case <-wake:
			case <-time.After(exchangeWait):
				t.Fatalf("consumer parked on an empty exchange was never woken (page %d of %d)", i, n)
			}
			continue
		}
		if pg == nil {
			if i != n {
				t.Fatalf("end of stream after %d pages, want %d", i, n)
			}
			break
		}
		if pg != pages[i] {
			t.Fatalf("page %d out of order", i)
		}
		i++
		if i%7 == 0 {
			runtime.Gosched()
		}
	}
}

// TestExchangeCursorParksUntilDelivery: the client's cursor parks on an
// empty root until a slow producer delivers, and returns the context's
// error when cancelled while parked.
func TestExchangeCursorParksUntilDelivery(t *testing.T) {
	type result struct {
		pg  *Page
		err error
	}
	// parked waits until the cursor registered its waker on root.
	parked := func(t *testing.T, root *exchange) {
		t.Helper()
		deadline := time.Now().Add(exchangeWait)
		for {
			root.mu.Lock()
			w := root.recvWaiter
			root.mu.Unlock()
			if w != nil {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("cursor never parked on the root")
			}
			runtime.Gosched()
		}
	}

	t.Run("delivery", func(t *testing.T) {
		p, root := rootPipeline(1)
		deliver, stop := make(chan struct{}), make(chan struct{})
		sent := new(Page)
		go func() {
			defer p.running.Done()
			select {
			case <-deliver:
				root.trySend(sent, nil)
			case <-p.done:
			}
			select {
			case <-stop:
			case <-p.done:
			}
			root.close()
		}()
		c := newStagedCursor(context.Background(), p, root)
		defer c.Close()
		got := make(chan result, 1)
		go func() {
			pg, err := c.NextPage()
			got <- result{pg, err}
		}()
		parked(t, root)
		select {
		case r := <-got:
			t.Fatalf("NextPage returned %v, %v before any page was sent", r.pg, r.err)
		default:
		}
		close(deliver)
		select {
		case r := <-got:
			if r.pg != sent || r.err != nil {
				t.Fatalf("NextPage = %p, %v; want %p", r.pg, r.err, sent)
			}
		case <-time.After(exchangeWait):
			p.fail(errors.New("test timed out")) // lets the cursor's read return
			<-got
			t.Fatal("parked cursor was not woken by the delivery")
		}
		close(stop)
		if pg, err := c.NextPage(); pg != nil || err != nil {
			t.Fatalf("read after close = %v, %v; want end of stream", pg, err)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		p, root := rootPipeline(1)
		go func() {
			defer p.running.Done()
			<-p.done
			root.close()
		}()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		c := newStagedCursor(ctx, p, root)
		defer c.Close()
		got := make(chan result, 1)
		go func() {
			pg, err := c.NextPage()
			got <- result{pg, err}
		}()
		parked(t, root)
		cancel()
		select {
		case r := <-got:
			if r.pg != nil || !errors.Is(r.err, context.Canceled) {
				t.Fatalf("NextPage after cancel = %v, %v; want nil, context.Canceled", r.pg, r.err)
			}
		case <-time.After(exchangeWait):
			t.Fatal("parked cursor was not woken by the cancel")
		}
	})
}
