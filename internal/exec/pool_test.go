package exec

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stagedb/internal/metrics"
	"stagedb/internal/plan"
	"stagedb/internal/value"
)

// bulkDB builds two joinable tables large enough to overflow small page
// buffers many times over.
func bulkDB(t *testing.T, rows int) *testDB {
	t.Helper()
	db := newTestDB()
	db.createTable(t, "CREATE TABLE big (id INT PRIMARY KEY, grp INT, v INT)")
	db.createTable(t, "CREATE TABLE dim (id INT PRIMARY KEY, label TEXT)")
	for i := 0; i < rows; i++ {
		db.insert(t, "big", value.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 7)),
			value.NewInt(int64(i * 3)),
		})
	}
	for i := 0; i < 7; i++ {
		db.insert(t, "dim", value.Row{
			value.NewInt(int64(i)),
			value.NewText(fmt.Sprintf("g%d", i)),
		})
	}
	return db
}

// runPooled executes a query plan through RunStaged on the given pool.
func runPooled(t *testing.T, db *testDB, pool *StagePool, q string, pageRows, bufferPages int) []value.Row {
	t.Helper()
	node := db.plan(t, q, plan.Options{})
	rows, err := RunStaged(node, db, pool, StagedOptions{PageRows: pageRows, BufferPages: bufferPages})
	if err != nil {
		t.Fatalf("pooled %q: %v", q, err)
	}
	return rows
}

// TestStagePoolMatchesVolcano checks that the pooled scheduler
// computes the same results as the pull driver across the operator
// repertoire, including with tiny pages and buffers that force constant
// blocking and yielding.
func TestStagePoolMatchesVolcano(t *testing.T) {
	db := bulkDB(t, 200)
	queries := []string{
		"SELECT * FROM big WHERE v > 30",
		"SELECT grp, COUNT(*), SUM(v) FROM big GROUP BY grp",
		"SELECT b.id, d.label FROM big b JOIN dim d ON b.grp = d.id WHERE b.v > 100",
		"SELECT grp, COUNT(*) AS n FROM big GROUP BY grp ORDER BY n DESC LIMIT 3",
		"SELECT DISTINCT grp FROM big ORDER BY grp",
	}
	for _, cfg := range []struct {
		name                  string
		workers, depth        int
		pageRows, bufferPages int
	}{
		{"defaults", 0, 0, 0, 0},
		{"tiny", 1, 1, 1, 1},
		{"wide", 4, 8, 8, 2},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			pool := NewStagePool(StagePoolConfig{Workers: cfg.workers, QueueDepth: cfg.depth})
			defer pool.Close()
			for _, q := range queries {
				node := db.plan(t, q, plan.Options{})
				want, err := runPull(node, db, BuildConfig{PageRows: cfg.pageRows})
				if err != nil {
					t.Fatalf("baseline %q: %v", q, err)
				}
				got := runPooled(t, db, pool, q, cfg.pageRows, cfg.bufferPages)
				sameRows(t, got, want)
			}
		})
	}
}

// TestStagePoolBlockedOperatorYield pins every stage to a single worker with
// single-page buffers. Both scan tasks share the one fscan worker; the scan
// that fills its output buffer first must yield the worker (not sleep on
// the full exchange) or the second scan never runs and the join deadlocks.
func TestStagePoolBlockedOperatorYield(t *testing.T) {
	db := bulkDB(t, 150)
	pool := NewStagePool(StagePoolConfig{Workers: 1, QueueDepth: 1})
	defer pool.Close()

	done := make(chan []value.Row, 1)
	go func() {
		done <- runPooled(t, db, pool,
			"SELECT b.id, d.label FROM big b JOIN dim d ON b.grp = d.id", 1, 1)
	}()
	select {
	case rows := <-done:
		if len(rows) != 150 {
			t.Fatalf("got %d rows, want 150", len(rows))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline deadlocked: blocked operator did not yield its worker")
	}
}

// TestStagePoolBackpressure floods a pool whose stage queues hold a single
// task with many concurrent pipelines; back-pressure on launch must throttle
// submitters without deadlocking or corrupting results.
func TestStagePoolBackpressure(t *testing.T) {
	db := bulkDB(t, 120)
	pool := NewStagePool(StagePoolConfig{Workers: 2, QueueDepth: 1})
	defer pool.Close()

	node := db.plan(t, "SELECT grp, COUNT(*) FROM big WHERE v >= 0 GROUP BY grp", plan.Options{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				rows, err := RunStaged(node, db, pool, StagedOptions{PageRows: 4, BufferPages: 1})
				if err != nil {
					errs <- err
					return
				}
				if len(rows) != 7 {
					errs <- fmt.Errorf("got %d groups, want 7", len(rows))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStagePoolCloseDrains closes the pool and checks that late pipelines
// still complete (degrading to plain goroutines) and that Close is
// idempotent — the "clean drain on close" contract.
func TestStagePoolCloseDrains(t *testing.T) {
	db := bulkDB(t, 80)
	pool := NewStagePool(StagePoolConfig{Workers: 2, QueueDepth: 4})
	rows := runPooled(t, db, pool, "SELECT COUNT(*) FROM big", 0, 0)
	if len(rows) != 1 || rows[0][0].Int() != 80 {
		t.Fatalf("pre-close count: %v", rows)
	}
	pool.Close()
	pool.Close() // idempotent

	rows = runPooled(t, db, pool, "SELECT grp, MAX(v) FROM big GROUP BY grp", 0, 0)
	if len(rows) != 7 {
		t.Fatalf("post-close query: got %d rows, want 7", len(rows))
	}
}

// TestStagePoolCloseRace closes the pool while pipelines are in flight; all
// of them must still complete.
func TestStagePoolCloseRace(t *testing.T) {
	db := bulkDB(t, 100)
	pool := NewStagePool(StagePoolConfig{Workers: 2, QueueDepth: 2})
	node := db.plan(t, "SELECT b.grp, COUNT(*) FROM big b JOIN dim d ON b.grp = d.id GROUP BY b.grp", plan.Options{})

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				rows, err := RunStaged(node, db, pool, StagedOptions{PageRows: 2, BufferPages: 1})
				if err != nil {
					errs <- err
					return
				}
				if len(rows) != 7 {
					errs <- fmt.Errorf("got %d groups, want 7", len(rows))
					return
				}
			}
		}()
	}
	pool.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStagePoolSnapshot checks the monitor surface reports each stage's
// worker count, service counts and queue.
func TestStagePoolSnapshot(t *testing.T) {
	db := bulkDB(t, 100)
	pool := NewStagePool(StagePoolConfig{Workers: 1, QueueDepth: 4})
	defer pool.Close()
	pool.AddStage("aggr", 3, 0)

	q := "SELECT grp, COUNT(*) FROM big GROUP BY grp"
	runPooled(t, db, pool, q, 0, 0)
	runPooled(t, db, pool, q, 0, 0)

	workers := map[string]int{}
	for _, s := range pool.Snapshot() {
		workers[s.Name] = s.Workers
		if s.Workers < 1 {
			t.Fatalf("stage %s reports %d workers", s.Name, s.Workers)
		}
		if s.Serviced == 0 {
			t.Fatalf("stage %s serviced nothing", s.Name)
		}
		if s.QueueLen != 0 {
			t.Fatalf("stage %s queue = %d after the queries finished, want 0", s.Name, s.QueueLen)
		}
	}
	for stage, want := range map[string]int{"fscan": 1, "aggr": 3} {
		if got, ok := workers[stage]; !ok || got != want {
			t.Fatalf("stage %s: workers = %d (present %v), want %d", stage, got, ok, want)
		}
	}
}

// TestStagePoolFailurePropagation checks that a failing operator aborts the
// whole pipeline without stranding parked sibling tasks.
func TestStagePoolFailurePropagation(t *testing.T) {
	db := bulkDB(t, 60)
	pool := NewStagePool(StagePoolConfig{Workers: 1, QueueDepth: 2})
	defer pool.Close()

	// Division only fails on the NULL-free rows path at eval time; use a
	// predicate that errors mid-stream instead: comparing int to text.
	node := db.plan(t, "SELECT id FROM big WHERE v > 10", plan.Options{})
	// Sabotage: drop the heap so the scan errors at Open.
	broken := newTestDB()
	broken.cat = db.cat
	done := make(chan error, 1)
	go func() {
		_, err := RunStaged(node, broken, pool, StagedOptions{PageRows: 1, BufferPages: 1})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected scan failure, got success")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("failed pipeline did not unwind")
	}
}

// TestRunStagedReleasesAbandonedProducers runs a LIMIT query that stops
// reading upstream exchanges early; RunStaged must release the parked
// producers on return, or their tasks would never get their Close (and a
// goroutine would leak per query).
func TestRunStagedReleasesAbandonedProducers(t *testing.T) {
	db := bulkDB(t, 300)
	node := db.plan(t, "SELECT id FROM big LIMIT 1", plan.Options{})
	onEachPool(t, func(t *testing.T, pool *StagePool) {
		// Run one query first so the pool's stage workers exist before the
		// goroutine count is sampled.
		if _, err := RunStaged(node, db, pool, StagedOptions{PageRows: 1, BufferPages: 1}); err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		for i := 0; i < 20; i++ {
			rows, err := RunStaged(node, db, pool, StagedOptions{PageRows: 1, BufferPages: 1})
			if err != nil || len(rows) != 1 {
				t.Fatalf("pooled limit: %v %v", rows, err)
			}
		}
		// Released producers exit asynchronously; wait for the count to settle.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before+2 {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
	})
}

// funcTask is a Task that runs fn at stage.
type funcTask struct {
	stage string
	fn    func()
}

func (f funcTask) Stage() string { return f.stage }
func (f funcTask) Run()          { f.fn() }

// TestStagePoolSubmitBackPressure fills a one-worker, depth-1 stage behind a
// blocked task: QueueLen counts the queued task, the next Submit blocks its
// caller, and another stage keeps serving (§4.1.1: queries not bound for the
// blocked stage keep running). Snapshot lists stages in creation order.
func TestStagePoolSubmitBackPressure(t *testing.T) {
	pool := NewStagePool(StagePoolConfig{})
	defer pool.Close()
	pool.AddStage("slow", 1, 1)
	pool.AddStage("fast", 1, 0)
	running, release := make(chan struct{}), make(chan struct{})
	pool.Submit(funcTask{"slow", func() { close(running); <-release }})
	<-running
	pool.Submit(funcTask{"slow", func() {}})
	if got := pool.QueueLen("slow"); got != 1 {
		t.Fatalf("slow queue length = %d, want 1", got)
	}
	submitted := make(chan struct{})
	go func() {
		pool.Submit(funcTask{"slow", func() {}})
		close(submitted)
	}()
	served := make(chan struct{})
	pool.Submit(funcTask{"fast", func() { close(served) }})
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("a full stage stalled another stage")
	}
	select {
	case <-submitted:
		t.Fatal("Submit into a full queue did not block")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-submitted:
	case <-time.After(10 * time.Second):
		t.Fatal("blocked Submit never admitted")
	}
	var names []string
	for _, s := range pool.Snapshot() {
		names = append(names, s.Name)
	}
	if fmt.Sprint(names) != "[slow fast]" {
		t.Fatalf("snapshot order %v, want [slow fast]", names)
	}
}

// TestStagePoolMonitorExact drives Submit and ready into a few stages from
// many goroutines while a sampler reads Snapshot: every snapshot's queue
// length is its arrivals minus its departures, and the high-water mark
// covers every queue length seen. At quiescence the queues are empty and
// every task that arrived was taken and serviced.
func TestStagePoolMonitorExact(t *testing.T) {
	pool := NewStagePool(StagePoolConfig{Workers: 1, QueueDepth: 3})
	defer pool.Close()
	stages := []string{"a", "b", "c"}
	const goroutines, perGoroutine = 8, 200

	stop := make(chan struct{})
	sampled := make(chan map[string]int)
	go func() {
		seen := map[string]int{}
		for {
			for _, s := range pool.Snapshot() {
				if s.Enqueued-s.Dequeued != int64(s.QueueLen) {
					t.Errorf("stage %s: enqueued %d - dequeued %d != queue %d", s.Name, s.Enqueued, s.Dequeued, s.QueueLen)
				}
				if s.MaxQueue < s.QueueLen {
					t.Errorf("stage %s: max queue %d below queue %d", s.Name, s.MaxQueue, s.QueueLen)
				}
				seen[s.Name] = max(seen[s.Name], s.QueueLen)
			}
			select {
			case <-stop:
				sampled <- seen
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(goroutines * perGoroutine)
	for g := range goroutines {
		go func() {
			for i := range perGoroutine {
				task := funcTask{stages[(g+i)%len(stages)], func() { runtime.Gosched(); wg.Done() }}
				if i%2 == 0 {
					pool.Submit(task)
				} else {
					pool.ready(task)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	seen := <-sampled

	// A worker records a service when it comes back for its next task, just
	// after the task's Run returned.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var total int64
		settled := true
		for _, s := range pool.Snapshot() {
			total += s.Enqueued
			settled = settled && s.QueueLen == 0 && s.Enqueued == s.Dequeued && int64(s.Serviced) == s.Dequeued
		}
		if settled && total == goroutines*perGoroutine {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stages never settled: %+v", pool.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	for _, s := range pool.Snapshot() {
		if s.MaxQueue < seen[s.Name] {
			t.Fatalf("stage %s: max queue %d below a queue length of %d seen", s.Name, s.MaxQueue, seen[s.Name])
		}
		if s.Busy <= 0 || s.MeanService != s.Busy/time.Duration(s.Serviced) {
			t.Fatalf("stage %s: busy %v, mean service %v over %d", s.Name, s.Busy, s.MeanService, s.Serviced)
		}
	}
	if u := (metrics.StageSnapshot{Busy: 5 * time.Millisecond}).Utilization(10 * time.Millisecond); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

// TestStagePoolReadyBypassesBound fills a one-worker stage's queue behind a
// blocked task: queued stays at its depth while a further Submit waits, a
// ready into the full stage returns at once, and the worker serves the
// woken tasks before the queued ones.
func TestStagePoolReadyBypassesBound(t *testing.T) {
	pool := NewStagePool(StagePoolConfig{})
	defer pool.Close()
	const depth = 2
	pool.AddStage("s", 1, depth)
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	task := func(name string) Task {
		wg.Add(1)
		return funcTask{"s", func() {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			wg.Done()
		}}
	}
	running, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // before pool.Close, so a failed check cannot hang it
	pool.Submit(funcTask{"s", func() { close(running); <-release }})
	<-running
	pool.Submit(task("q0"))
	pool.Submit(task("q1"))
	q2 := task("q2")
	admitted := make(chan struct{})
	go func() {
		pool.Submit(q2)
		close(admitted)
	}()
	readied := make(chan struct{})
	go func() {
		for _, name := range []string{"r0", "r1", "r2"} {
			pool.ready(task(name))
		}
		close(readied)
	}()
	select {
	case <-readied:
	case <-time.After(10 * time.Second):
		t.Fatal("ready blocked on a stage whose queue is full")
	}
	ps := pool.stage("s", 0, 0)
	ps.mu.Lock()
	queued, ready := len(ps.queued), len(ps.ready)
	ps.mu.Unlock()
	if queued != depth || ready != 3 {
		t.Fatalf("queued %d (depth %d), ready %d, want %d and 3", queued, depth, ready, depth)
	}
	if got := pool.QueueLen("s"); got != depth+3 {
		t.Fatalf("queue length %d, want %d", got, depth+3)
	}
	select {
	case <-admitted:
		t.Fatal("Submit into a full queue did not block")
	default:
	}
	unblock()
	<-admitted
	wg.Wait()
	if got := fmt.Sprint(order); got != "[r0 r1 r2 q0 q1 q2]" {
		t.Fatalf("service order %s, want the woken tasks first", got)
	}
}

// TestStagePoolWakesEveryWorker queues bursts of tasks at a stage, one per
// worker, each task waiting until all are running, and submits the next
// burst as soon as the last one's tasks return — while the workers are
// between finding their lists empty and parking, the window where a ping
// finds the last one still in the wake slot and is dropped. Every burst must
// meet: a worker that takes a task passes the wake on while tasks remain, or
// a task waits for a push that never comes. TestStagePoolTakePassesWakeOn
// pins the same rule without relying on the scheduler to open the window.
func TestStagePoolWakesEveryWorker(t *testing.T) {
	const workers = 4
	pool := NewStagePool(StagePoolConfig{})
	defer pool.Close()
	pool.AddStage("meet", workers, 0)
	giveUp := make(chan struct{})
	defer close(giveUp)
	for burst := range 1000 {
		var arrived, returned sync.WaitGroup
		arrived.Add(workers)
		returned.Add(workers)
		all := make(chan struct{})
		for range workers {
			pool.Submit(funcTask{"meet", func() {
				defer returned.Done()
				arrived.Done()
				select {
				case <-all:
				case <-giveUp:
				}
			}})
		}
		go func() {
			arrived.Wait()
			close(all)
		}()
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			t.Fatalf("burst %d: %d tasks queued at a %d-worker stage never ran at once", burst, workers, workers)
		}
		returned.Wait()
	}
}

// idleStage registers a stage that has no workers, so a test can play a
// worker's part by calling take itself.
func idleStage(pool *StagePool, name string, depth int) *poolStage {
	ps := &poolStage{
		pool:  pool,
		name:  name,
		depth: depth,
		wake:  make(chan struct{}, 1),
		space: make(chan struct{}, 1),
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	pool.stages[name] = ps
	pool.order = append(pool.order, ps)
	return ps
}

// TestStagePoolTakePassesWakeOn replays a lost wake step by step. Two pushes
// land while two workers are about to park: the first ping fills the wake
// slot, the second is dropped. One worker wakes on the ping and takes the
// first task; it must leave a ping for the other, or the second task waits
// while a worker sleeps. The take of the last task passes nothing on.
func TestStagePoolTakePassesWakeOn(t *testing.T) {
	pool := NewStagePool(StagePoolConfig{})
	defer pool.Close()
	ps := idleStage(pool, "idle", 4)
	pool.Submit(funcTask{"idle", func() {}})
	pool.Submit(funcTask{"idle", func() {}}) // its ping finds the slot full
	<-ps.wake
	ps.take(-1)
	if len(ps.wake) != 1 {
		t.Fatal("a take that left a task waiting passed no wake on")
	}
	<-ps.wake
	ps.take(-1)
	if len(ps.wake) != 0 {
		t.Fatal("a take that left no task waiting passed a wake on")
	}
}

// TestStagePoolSubmitPassesSpaceOn replays a lost space ping: two takes free
// two slots of a full queue while two submitters wait, and only one ping
// reaches them. The submitter admitted on it must leave a ping for the
// other while room remains.
func TestStagePoolSubmitPassesSpaceOn(t *testing.T) {
	pool := NewStagePool(StagePoolConfig{})
	defer pool.Close()
	ps := idleStage(pool, "idle", 3)
	for range 3 {
		pool.Submit(funcTask{"idle", func() {}})
	}
	admitted := make(chan struct{})
	go func() {
		pool.Submit(funcTask{"idle", func() {}})
		close(admitted)
	}()
	// A probe ping, consumed only by the submitter: once it is gone the
	// submitter has been woken and will pass a ping on when admitted.
	ping(ps.space)
	for len(ps.space) != 0 {
		runtime.Gosched()
	}
	// Two takes free two slots; their pings are lost to other submitters.
	ps.mu.Lock()
	popFront(&ps.queued)
	popFront(&ps.queued)
	ps.mu.Unlock()
	select {
	case <-admitted: // it re-checked after the takes
	case <-time.After(50 * time.Millisecond): // it parked: one ping reaches it
		ping(ps.space)
		<-admitted
	}
	if len(ps.space) != 1 {
		t.Fatal("a woken submitter that left room in the queue passed no space ping on")
	}
}

// TestStagePoolLateTasksRunOnce submits and readies tasks into existing and
// new stages while the pool closes and after it has closed: each runs
// exactly once, on a worker that drained it or on a goroutine of its own.
func TestStagePoolLateTasksRunOnce(t *testing.T) {
	pool := NewStagePool(StagePoolConfig{Workers: 1, QueueDepth: 1})
	pool.AddStage("old", 1, 1)
	const goroutines, perGoroutine = 4, 100
	runs := make([]atomic.Int32, 2*goroutines*perGoroutine)
	var wg sync.WaitGroup
	wg.Add(len(runs))
	push := func(g, i int) {
		n := g*perGoroutine + i
		stage := [...]string{"old", "new"}[i%2]
		pool.Submit(funcTask{stage, func() { runs[2*n].Add(1); wg.Done() }})
		pool.ready(funcTask{stage, func() { runs[2*n+1].Add(1); wg.Done() }})
	}
	var pushers sync.WaitGroup
	for g := range goroutines {
		pushers.Add(1)
		go func() {
			defer pushers.Done()
			for i := range perGoroutine / 2 {
				push(g, i)
			}
		}()
	}
	pool.Close()
	pushers.Wait()
	for g := range goroutines {
		for i := perGoroutine / 2; i < perGoroutine; i++ {
			push(g, i)
		}
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a task submitted or readied around Close never ran")
	}
	for n := range runs {
		if got := runs[n].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", n, got)
		}
	}
}
