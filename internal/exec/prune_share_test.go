package exec

import (
	"sync"
	"testing"

	"stagedb/internal/mvcc"
	"stagedb/internal/plan"
	"stagedb/internal/value"
	"stagedb/internal/vclock"
)

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

// TestSharedScanColumnsConcurrentQueries runs whole queries with disjoint
// column needs over one scan registry, the rest starting once the first is
// under way, next to a self-join whose probe side waits on its build side —
// on the default pool and on the 1-worker / depth-1 / batch-1 pool. Each must
// match its own private (Volcano) answer; under -race this is also the check
// that concurrent scans of one heap with different column sets do not race.
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
		opts := StagedOptions{PageRows: 8, BufferPages: 1, Shared: shared}

		// The first query is opened as a cursor and read one page in, so the
		// rest start at the position it reported.
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
