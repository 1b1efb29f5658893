package core

import (
	"sync"
	"testing"
	"time"
)

// buildPipeline makes a server with stages a -> b -> c where each handler
// appends its name to the packet's backpack (a []string).
func buildPipeline(tb testing.TB, workers, queueCap int) (*Server, *sync.Map) {
	var results sync.Map
	srv := NewServer()
	handler := func(name string) Handler {
		return func(pkt *Packet) (Verdict, error) {
			trail := pkt.Backpack.([]string)
			pkt.Backpack = append(trail, name)
			return Forward, nil
		}
	}
	for _, name := range []string{"a", "b", "c"} {
		srv.AddStage(StageConfig{Name: name, Workers: workers, QueueCap: queueCap, Handler: handler(name)})
	}
	done := make(chan *Packet, 1024)
	srv.OnFinish(func(pkt *Packet) { done <- pkt })
	go func() {
		for pkt := range done {
			results.Store(pkt.Client, pkt)
		}
	}()
	tb.Cleanup(srv.Stop)
	return srv, &results
}

func waitFor(tb testing.TB, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	tb.Fatal("condition not met within 5s")
}

func TestPacketsFlowThroughRoute(t *testing.T) {
	srv, results := buildPipeline(t, 2, 16)
	srv.Start()
	for i := 0; i < 50; i++ {
		pkt := &Packet{Client: i, Route: []string{"a", "b", "c"}, Backpack: []string{}}
		if err := srv.Submit(pkt); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		n := 0
		results.Range(func(any, any) bool { n++; return true })
		return n == 50
	})
	results.Range(func(_, v any) bool {
		pkt := v.(*Packet)
		trail := pkt.Backpack.([]string)
		if len(trail) != 3 || trail[0] != "a" || trail[1] != "b" || trail[2] != "c" {
			t.Fatalf("query %d took route %v", pkt.Client, trail)
		}
		return true
	})
}

func TestPartialRouteSkipsStages(t *testing.T) {
	// A precompiled query routes straight to the last stage (§4.1).
	srv, results := buildPipeline(t, 1, 16)
	srv.Start()
	pkt := &Packet{Client: 1, Route: []string{"c"}, Backpack: []string{}}
	if err := srv.Submit(pkt); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, ok := results.Load(1); return ok })
	v, _ := results.Load(1)
	trail := v.(*Packet).Backpack.([]string)
	if len(trail) != 1 || trail[0] != "c" {
		t.Fatalf("route: %v", trail)
	}
}

func TestHandlerErrorRoutesToFinalStage(t *testing.T) {
	srv := NewServer()
	var lastSaw *Packet
	var mu sync.Mutex
	srv.AddStage(StageConfig{Name: "first", Handler: func(pkt *Packet) (Verdict, error) {
		return Done, errTest
	}})
	srv.AddStage(StageConfig{Name: "last", Handler: func(pkt *Packet) (Verdict, error) {
		mu.Lock()
		lastSaw = pkt
		mu.Unlock()
		return Done, nil
	}})
	finished := make(chan *Packet, 1)
	srv.OnFinish(func(pkt *Packet) { finished <- pkt })
	srv.Start()
	defer srv.Stop()
	if err := srv.Submit(&Packet{Route: []string{"first", "last"}}); err != nil {
		t.Fatal(err)
	}
	pkt := <-finished
	if pkt.Err == nil {
		t.Fatal("packet error lost")
	}
	mu.Lock()
	defer mu.Unlock()
	if lastSaw == nil {
		t.Fatal("failed packet should drain to the final stage on its route")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test failure" }

func TestBackPressureBlocksOnlyProducer(t *testing.T) {
	// Stage "slow" has QueueCap 1 and a blocked handler. Filling it blocks a
	// producer, but stage "fast" keeps serving (the paper's §4.1.1: queries
	// that do not output to the blocked stage continue to run).
	srv := NewServer()
	release := make(chan struct{})
	srv.AddStage(StageConfig{Name: "slow", QueueCap: 1, Handler: func(pkt *Packet) (Verdict, error) {
		<-release
		return Done, nil
	}})
	fastCount := 0
	var mu sync.Mutex
	srv.AddStage(StageConfig{Name: "fast", QueueCap: 16, Handler: func(pkt *Packet) (Verdict, error) {
		mu.Lock()
		fastCount++
		mu.Unlock()
		return Done, nil
	}})
	srv.Start()
	defer func() { close(release); srv.Stop() }()

	// One packet in service, one in queue; the third blocks its producer.
	srv.Submit(&Packet{Route: []string{"slow"}})
	srv.Submit(&Packet{Route: []string{"slow"}})
	producerBlocked := make(chan struct{})
	go func() {
		close(producerBlocked)
		srv.Submit(&Packet{Route: []string{"slow"}}) // blocks here
	}()
	<-producerBlocked
	time.Sleep(10 * time.Millisecond)

	// The fast stage still serves.
	for i := 0; i < 5; i++ {
		if err := srv.Submit(&Packet{Route: []string{"fast"}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return fastCount == 5
	})
}

func TestStageStatsCollected(t *testing.T) {
	srv, results := buildPipeline(t, 1, 16)
	srv.Start()
	for i := 0; i < 10; i++ {
		srv.Submit(&Packet{Client: i, Route: []string{"a", "b", "c"}, Backpack: []string{}})
	}
	waitFor(t, func() bool {
		n := 0
		results.Range(func(any, any) bool { n++; return true })
		return n == 10
	})
	for _, snap := range srv.Snapshot() {
		if snap.Enqueued != 10 || snap.Dequeued != 10 {
			t.Fatalf("stage %s stats: %+v", snap.Name, snap)
		}
		if snap.Serviced != 10 {
			t.Fatalf("stage %s serviced %d", snap.Name, snap.Serviced)
		}
	}
}

func TestUnknownRouteFailsPacket(t *testing.T) {
	srv := NewServer()
	srv.AddStage(StageConfig{Name: "a", Handler: func(pkt *Packet) (Verdict, error) {
		return Forward, nil
	}})
	finished := make(chan *Packet, 1)
	srv.OnFinish(func(pkt *Packet) { finished <- pkt })
	srv.Start()
	defer srv.Stop()
	srv.Submit(&Packet{Route: []string{"a", "nope"}})
	pkt := <-finished
	if pkt.Err == nil {
		t.Fatal("unknown stage should fail the packet")
	}
	if err := srv.Submit(&Packet{Route: []string{"nope"}}); err == nil {
		t.Fatal("submit to unknown stage should fail")
	}
}

func TestSubmitAfterStop(t *testing.T) {
	srv, _ := buildPipeline(t, 1, 4)
	srv.Start()
	srv.Stop()
	err := srv.Submit(&Packet{Route: []string{"a"}})
	if err != ErrStopped {
		t.Fatalf("want ErrStopped, got %v", err)
	}
}

func TestBatchDrainsQueue(t *testing.T) {
	srv := NewServer()
	served := make(chan int, 64)
	srv.AddStage(StageConfig{Name: "b", Workers: 1, Batch: 8, QueueCap: 64,
		Handler: func(pkt *Packet) (Verdict, error) {
			served <- pkt.Client
			return Done, nil
		}})
	srv.Start()
	defer srv.Stop()
	for i := 0; i < 32; i++ {
		srv.Submit(&Packet{Client: i, Route: []string{"b"}})
	}
	got := map[int]bool{}
	for i := 0; i < 32; i++ {
		got[<-served] = true
	}
	if len(got) != 32 {
		t.Fatalf("served %d distinct packets", len(got))
	}
}

func TestAddStagePanics(t *testing.T) {
	srv := NewServer()
	srv.AddStage(StageConfig{Name: "a", Handler: func(*Packet) (Verdict, error) { return Done, nil }})
	for _, fn := range []func(){
		func() {
			srv.AddStage(StageConfig{Name: "a", Handler: func(*Packet) (Verdict, error) { return Done, nil }})
		},
		func() {
			srv.AddStage(StageConfig{Name: "", Handler: func(*Packet) (Verdict, error) { return Done, nil }})
		},
		func() { srv.AddStage(StageConfig{Name: "b"}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic")
				}
			}()
			fn()
		}()
	}
}

// TestStopDeliversInFlightPackets reproduces the shutdown hang: a packet
// whose forward races Stop must be failed and delivered to the finish hook,
// never silently dropped (a client waiting on it would hang forever).
func TestStopDeliversInFlightPackets(t *testing.T) {
	srv := NewServer()
	inFirst := make(chan struct{})
	release := make(chan struct{})
	srv.AddStage(StageConfig{Name: "first", Handler: func(pkt *Packet) (Verdict, error) {
		close(inFirst)
		<-release // hold the packet in service until Stop is underway
		return Forward, nil
	}})
	srv.AddStage(StageConfig{Name: "last", Handler: func(pkt *Packet) (Verdict, error) {
		return Done, nil
	}})
	finished := make(chan *Packet, 1)
	srv.OnFinish(func(pkt *Packet) { finished <- pkt })
	srv.Start()

	pkt := &Packet{Route: []string{"first", "last"}}
	if err := srv.Submit(pkt); err != nil {
		t.Fatal(err)
	}
	<-inFirst
	stopDone := make(chan struct{})
	go func() {
		srv.Stop()
		close(stopDone)
	}()
	// Give Stop a moment to close the stopped channel, then let the handler
	// forward into the now-stopping server.
	time.Sleep(10 * time.Millisecond)
	close(release)

	select {
	case got := <-finished:
		if got.Err == nil {
			t.Fatal("dropped packet finished without an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("packet dropped on shutdown was never delivered to the finish hook")
	}
	<-stopDone
}

// TestStopFailsQueuedPackets checks that packets still sitting in stage
// queues when the workers exit are failed with ErrStopped rather than
// vanishing.
func TestStopFailsQueuedPackets(t *testing.T) {
	srv := NewServer()
	block := make(chan struct{})
	srv.AddStage(StageConfig{Name: "only", Workers: 1, QueueCap: 8, Handler: func(pkt *Packet) (Verdict, error) {
		<-block
		return Done, nil
	}})
	var mu sync.Mutex
	var finished []*Packet
	srv.OnFinish(func(pkt *Packet) {
		mu.Lock()
		finished = append(finished, pkt)
		mu.Unlock()
	})
	srv.Start()
	for i := 0; i < 4; i++ {
		if err := srv.Submit(&Packet{Client: i, Route: []string{"only"}}); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(block)
	}()
	srv.Stop()
	mu.Lock()
	defer mu.Unlock()
	// Every submitted packet must reach the finish hook, with ErrStopped on
	// those the workers never serviced.
	if len(finished) != 4 {
		t.Fatalf("finished %d packets, want all 4", len(finished))
	}
}
