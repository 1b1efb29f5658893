package exec

import (
	"sync"
	"testing"
	"time"

	"stagedb/internal/catalog"
	"stagedb/internal/mvcc"
	"stagedb/internal/plan"
	"stagedb/internal/storage"
	"stagedb/internal/value"
	"stagedb/internal/vclock"
)

// items is (id, grp, pad) with no NULLs, so "column i is non-NULL on every
// row" means "column i was decoded on every page this consumer got".
const (
	colID = iota
	colGrp
	colPad
)

// checkDecoded checks every row has column need decoded and returns how many
// rows also carried column other (decoded for some other consumer's benefit).
func checkDecoded(t *testing.T, who string, rows []value.Row, need, other int) (withOther int) {
	t.Helper()
	for _, r := range rows {
		if r[need].IsNull() {
			t.Errorf("%s received a row without its column %d: %v", who, need, r)
			return
		}
		if !r[other].IsNull() {
			withOther++
		}
	}
	return withOther
}

// drainConsumer reads a wheel tap to the end of its shared stream.
func drainConsumer(t *testing.T, c *scanConsumer, acc []value.Row) []value.Row {
	t.Helper()
	for {
		pg, err := c.ex.Next()
		if err != nil {
			t.Error(err)
			return acc
		}
		if pg == nil {
			if err := c.takeErr(); err != nil {
				t.Error(err)
			}
			if _, _, left := c.continuation(); left != 0 {
				t.Errorf("consumer spilled with %d pages left; the test disables stalls", left)
			}
			return acc
		}
		acc = append(acc, pg.Rows...)
		pg.Release()
	}
}

// TestSharedScanColumnsUnion drives the wheel directly. A needs only id and
// starts the scan; B, needing only pad, attaches mid-circle. Every page is
// decoded for the union of the consumers it is delivered to: A's pages from
// before B attached carry no pad, every page B gets carries pad, and no page
// is ever narrower than its receiver's need.
func TestSharedScanColumnsUnion(t *testing.T) {
	db := shareDB(t, 600)
	tbl, err := db.cat.Get("items")
	if err != nil {
		t.Fatal(err)
	}
	h := db.heaps["items"]

	shared := NewSharedScans(1, nil)
	shared.stall = time.Minute // no spills: B must really ride the wheel
	done := make(chan struct{})
	defer close(done)

	a := shared.attach(h, tbl, []bool{true, false, false}, done)
	var rowsA []value.Row
	for i := 0; i < 2; i++ {
		pg, err := a.ex.Next()
		if err != nil || pg == nil {
			t.Fatalf("A page %d: %v %v", i, pg, err)
		}
		rowsA = append(rowsA, pg.Rows...)
	}
	if n := checkDecoded(t, "A alone", rowsA, colID, colPad); n != 0 {
		t.Fatalf("%d of A's first rows carry pad: with A alone on the wheel nothing but id should be decoded", n)
	}

	b := shared.attach(h, tbl, []bool{false, false, true}, done)
	var rowsB []value.Row
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rowsB = drainConsumer(t, b, nil)
	}()
	rowsA = drainConsumer(t, a, rowsA)
	wg.Wait()

	total := len(db.volcano(t, "SELECT id FROM items"))
	if len(rowsA) != total || len(rowsB) != total {
		t.Fatalf("A got %d rows, B got %d, want %d each", len(rowsA), len(rowsB), total)
	}
	if n := checkDecoded(t, "A", rowsA, colID, colPad); n == 0 {
		t.Error("no page A received carried pad: B attached mid-circle, the shared pages should")
	}
	if n := checkDecoded(t, "B", rowsB, colPad, colID); n == 0 {
		t.Error("no page B received carried id: the pages it shared with A should")
	}
	for _, r := range append(rowsA, rowsB...) {
		if !r[colGrp].IsNull() {
			t.Fatalf("grp decoded although neither consumer reads it: %v", r)
		}
	}
	if st := shared.Stats(); st.Starts != 1 || st.Attaches != 1 || st.Wraps != 1 {
		t.Fatalf("stats %+v, want one start, one mid-circle attach", st)
	}
}

// scanOf digs the single SeqScan out of a plan.
func scanOf(t *testing.T, n plan.Node) *plan.SeqScan {
	t.Helper()
	for n != nil {
		if s, ok := n.(*plan.SeqScan); ok {
			return s
		}
		if len(n.Children()) != 1 {
			break
		}
		n = n.Children()[0]
	}
	t.Fatal("no single SeqScan in plan")
	return nil
}

// TestSharedScanColumnsContinuation: a consumer the wheel spills finishes the
// circle privately — through seqScan's own continuation path — and that path
// decodes its plan's columns too. The scan operator is driven by hand so the
// stall is certain: it attaches and then does not read until the producer has
// let it go.
func TestSharedScanColumnsContinuation(t *testing.T) {
	db := shareDB(t, 600)
	node := scanOf(t, db.plan(t, "SELECT grp FROM items", plan.Options{}))
	if len(node.Cols) != 3 || node.Cols[colID] || !node.Cols[colGrp] || node.Cols[colPad] {
		t.Fatalf("plan reads %v, want only grp", node.Cols)
	}

	shared := NewSharedScans(1, nil)
	shared.stall = time.Millisecond
	done := make(chan struct{})
	defer close(done)

	op, err := BuildNode(node, nil, db, BuildConfig{PageRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	sc := op.(*seqScan)
	woken := make(chan struct{}, 1) // one pending wakeup is all a single reader needs
	sc.attach = func(h *storage.Heap, tbl *catalog.Table, cols []bool) *scanConsumer {
		return shared.attach(h, tbl, cols, done)
	}
	sc.wake = func() {
		select {
		case woken <- struct{}{}:
		default:
		}
	}
	if err := sc.Open(); err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	sc.cons.awaitDetach() // buffer full, nobody reading: the wheel spills us
	if _, _, left := sc.cons.continuation(); left == 0 {
		t.Fatal("the stalled consumer was not handed a continuation")
	}

	var rows []value.Row
	for {
		pg, err := sc.Next()
		if err == errWouldBlock {
			<-woken
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if pg == nil {
			break
		}
		rows = append(rows, pg.Rows...)
		pg.Release()
	}
	want := db.volcano(t, "SELECT id FROM items")
	if len(rows) != len(want) {
		t.Fatalf("%d rows through the continuation, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if r[colGrp].IsNull() || !r[colID].IsNull() || !r[colPad].IsNull() {
			t.Fatalf("row %v: want grp and nothing else decoded, on the wheel and off it", r)
		}
	}
	if st := shared.Stats(); st.Spills != 1 {
		t.Fatalf("stats %+v, want exactly one spill", st)
	}
}

// TestSharedScanColumnsConcurrentQueries runs whole queries with disjoint
// column needs over one wheel, the second starting once the first is under
// way, next to a self-join whose probe side stalls behind its build side —
// on the default pool and on the 1-worker / depth-1 / batch-1 pool. Each must
// match its own private (Volcano) answer; under -race this is also the check
// that the producer's mask snapshot and attach do not race.
func TestSharedScanColumnsConcurrentQueries(t *testing.T) {
	db := shareDB(t, 600)
	opt := plan.Options{DisableIndex: true}
	queries := []string{
		"SELECT id FROM items",
		"SELECT pad FROM items",
		"SELECT grp, COUNT(*) FROM items GROUP BY grp",
		"SELECT COUNT(*) FROM items",
		"SELECT a.grp FROM items a JOIN items b ON a.id = b.id WHERE b.grp = 3",
	}
	wants := make([][]value.Row, len(queries))
	for i, q := range queries {
		wants[i] = db.query(t, q, opt)
	}

	onEachPool(t, func(t *testing.T, pool *StagePool) {
		shared := NewSharedScans(1, nil)
		shared.stall = 2 * time.Millisecond
		opts := StagedOptions{PageRows: 8, BufferPages: 1, Shared: shared}

		// The first query is opened as a cursor and read one page in, so the
		// rest attach to a wheel that has left position 0.
		first, err := RunStagedCursor(db.plan(t, queries[0], opt), db, pool, opts)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := first.NextPage()
		if err != nil || pg == nil {
			t.Fatalf("first page: %v %v", pg, err)
		}
		head := append([]value.Row(nil), pg.Rows...)
		pg.Release()

		results := make([][]value.Row, len(queries))
		var wg sync.WaitGroup
		for i := 1; i < len(queries); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rows, err := RunStaged(db.plan(t, queries[i], opt), db, pool, opts)
				if err != nil {
					t.Errorf("%s: %v", queries[i], err)
				}
				results[i] = rows
			}(i)
		}
		rest, err := Drain(first)
		if err != nil {
			t.Fatal(err)
		}
		results[0] = append(head, rest...)
		wg.Wait()
		if t.Failed() {
			return
		}
		for i := range queries {
			for _, r := range results[i] {
				for c, v := range r {
					if v.IsNull() {
						t.Fatalf("%s: column %d of %v is NULL; items holds no NULL", queries[i], c, r)
					}
				}
			}
			sameRows(t, results[i], wants[i])
		}
	})
}

// TestVisibleMemoCallsPerCreator: a run of live versions by one creator costs
// one visibility decision; a deleted version always takes the full check.
func TestVisibleMemoCallsPerCreator(t *testing.T) {
	calls := 0
	m := visMemo{fn: func(xmin, xmax uint64) bool {
		calls++
		return xmin%2 == 1 && xmax == 0
	}}
	stamps := []struct {
		xmin, xmax uint64
		want       bool
		calls      int // cumulative
	}{
		{0, 0, false, 1}, // creator 0 is a creator like any other: no "unset" sentinel
		{0, 0, false, 1},
		{5, 0, true, 2},
		{5, 0, true, 2},
		{5, 9, false, 3}, // deleted: full check, every time
		{5, 9, false, 4},
		{5, 0, true, 4}, // the memo survived the detour
		{6, 0, false, 5},
		{5, 0, true, 6}, // one entry: coming back costs a decision
	}
	for i, s := range stamps {
		if got := m.visible(s.xmin, s.xmax); got != s.want {
			t.Fatalf("step %d (%d,%d): visible = %v, want %v", i, s.xmin, s.xmax, got, s.want)
		}
		if calls != s.calls {
			t.Fatalf("step %d (%d,%d): %d decisions so far, want %d", i, s.xmin, s.xmax, calls, s.calls)
		}
	}
}

// TestVisibleMemoSoundness checks the argument written next to visMemo
// against the real manager: whatever happens to a creator after the scan
// first met it, the memoised verdict is the verdict a fresh check gives.
func TestVisibleMemoSoundness(t *testing.T) {
	mv := mvcc.NewManager(vclock.NewOracle(0))
	const (
		early  = 1 // commits before the reader begins
		reader = 2
		active = 3 // active when first met, commits mid-scan
		loser  = 4 // aborts, its undo completes, Prune runs
		late   = 5 // begins and commits after the reader began
	)
	mv.Begin(early)
	mv.Commit(early)
	mv.Begin(active)
	mv.Begin(loser)
	snap := mv.Begin(reader)
	fresh := func(xmin, xmax uint64) bool { return mv.Visible(snap, xmin, xmax) }
	m := visMemo{fn: fresh}

	check := func(when string, xmin uint64, want bool) {
		t.Helper()
		if got := m.visible(xmin, 0); got != want {
			t.Errorf("%s: memoised verdict for creator %d = %v, want %v", when, xmin, got, want)
		}
		if got := fresh(xmin, 0); got != want {
			t.Errorf("%s: fresh verdict for creator %d = %v, want %v (the memo's premise is broken)", when, xmin, got, want)
		}
	}
	check("first sight", active, false)
	mv.Commit(active)
	check("after it committed mid-scan", active, false)

	check("own write", reader, true)
	check("committed before the snapshot", early, true)
	mv.Prune() // early's entry may go: unknown ids read as committed at 0
	check("after prune", early, true)

	mv.Abort(loser)
	check("aborted", loser, false)
	mv.AbortDone(loser)
	mv.Prune() // must keep loser's entry: the reader's snapshot predates the undo
	check("aborted, undo done, pruned", loser, false)

	mv.Begin(late)
	mv.Commit(late)
	check("committed after the snapshot", late, false)

	// A deleted version is never answered from the memo: the same creator,
	// visible while live, is hidden once the reader itself deleted the row.
	check("live version", early, true)
	if m.visible(early, reader) {
		t.Error("a version the reader deleted is visible: xmax != 0 must take the full check")
	}
	if !m.visible(early, active) {
		t.Error("a version deleted by a transaction that committed after the snapshot must stay visible")
	}
}
