package exec

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

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
