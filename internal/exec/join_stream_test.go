package exec

import (
	"context"
	"slices"
	"strings"
	"testing"

	"stagedb/internal/catalog"
	"stagedb/internal/plan"
	"stagedb/internal/sql"
	"stagedb/internal/storage"
	"stagedb/internal/value"
)

// pageSource is a synthetic operator emitting prebuilt pages, counting how
// many its consumer actually pulled.
type pageSource struct {
	pages []*Page
	i     int
	pulls int
}

func (s *pageSource) Open() error { s.i, s.pulls = 0, 0; return nil }
func (s *pageSource) Next() (*Page, error) {
	if s.i >= len(s.pages) {
		return nil, nil
	}
	s.pulls++
	pg := s.pages[s.i]
	s.i++
	return pg, nil
}
func (s *pageSource) Close() error { return nil }

func intPages(pageRows, total int) []*Page {
	var pages []*Page
	for start := 0; start < total; start += pageRows {
		pg := &Page{}
		for i := start; i < start+pageRows && i < total; i++ {
			pg.Rows = append(pg.Rows, value.Row{value.NewInt(int64(i))})
		}
		pages = append(pages, pg)
	}
	return pages
}

// TestHashJoinStreamsProbe: the hash join must probe its left input
// page-at-a-time — a LIMIT above the join stops the probe side after a
// handful of pages instead of materializing all of it, and the join's
// memory stays O(build).
func TestHashJoinStreamsProbe(t *testing.T) {
	const probePages = 100
	probe := &pageSource{pages: intPages(8, probePages*8)}
	build := &pageSource{pages: intPages(8, 64)}
	jn := &plan.Join{
		L: &plan.SeqScan{}, R: &plan.SeqScan{},
		LeftKeys: []int{0}, RightKey: []int{0},
	}
	join := &hashJoin{node: jn, left: probe, right: build, pageRows: 8}
	lim := &limitOp{child: join, n: 5}
	rows, err := RunCtx(context.Background(), lim)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("limit join returned %d rows", len(rows))
	}
	if build.pulls != len(build.pages) {
		t.Fatalf("build side must be drained fully: %d of %d pages", build.pulls, len(build.pages))
	}
	if probe.pulls > 3 {
		t.Fatalf("probe side materialized: %d of %d pages pulled for LIMIT 5", probe.pulls, probePages)
	}
}

// TestHashJoinStreamCorrectness checks the join against a closed-form oracle
// computed from the loaded rows: l holds (i%5, i) for i < 30 and r holds
// (j%4, j) for j < 20. The equi join has duplicate keys on both sides and a
// residual; the key-less join must also keep nested-loop order — l (probe)
// major, then r (build) in arrival order.
func TestHashJoinStreamCorrectness(t *testing.T) {
	db := seedDB(t)
	db.createTable(t, "CREATE TABLE l (k INT, v INT)")
	db.createTable(t, "CREATE TABLE r (k INT, w INT)")
	for i := 0; i < 30; i++ {
		db.insert(t, "l", value.Row{value.NewInt(int64(i % 5)), value.NewInt(int64(i))})
	}
	for i := 0; i < 20; i++ {
		db.insert(t, "r", value.Row{value.NewInt(int64(i % 4)), value.NewInt(int64(i))})
	}
	pairs := func(keep func(i, j int) bool) []value.Row {
		var out []value.Row
		for i := 0; i < 30; i++ {
			for j := 0; j < 20; j++ {
				if keep(i, j) {
					out = append(out, value.Row{value.NewInt(int64(i)), value.NewInt(int64(j))})
				}
			}
		}
		return out
	}
	got := db.query(t, "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k WHERE l.v + r.w > 10", plan.Options{})
	sameRows(t, got, pairs(func(i, j int) bool { return i%5 == j%4 && i+j > 10 }))
	got = db.query(t, "SELECT l.v, r.w FROM l JOIN r ON l.v < r.w", plan.Options{})
	requireSameOrder(t, got, pairs(func(i, j int) bool { return i < j }), "key-less join")
}

// TestJoinLimitReadsPrefix: end-to-end, a LIMIT over a join must stop the
// probe-side heap scan after a prefix of its pages — the probe side is no
// longer materialized.
func TestJoinLimitReadsPrefix(t *testing.T) {
	assertJoinLimitReadsPrefix(t, "SELECT b.id FROM big b, small s WHERE b.id = s.id LIMIT 10")
}

// TestKeylessJoinLimitReadsPrefix: a join with no equi key streams its probe
// side the same way (the nested loop it replaced drained both inputs before
// emitting a row).
func TestKeylessJoinLimitReadsPrefix(t *testing.T) {
	assertJoinLimitReadsPrefix(t, "SELECT b.id, s.id FROM big b, small s LIMIT 10")
}

// assertJoinLimitReadsPrefix runs q — a LIMIT 10 over a join of a 2,000-row
// padded table big with a 200-row table small, in FROM order so big is the
// probe side — on both drivers through a tiny buffer pool, and fails if it
// read more than a prefix of big's heap.
func assertJoinLimitReadsPrefix(t *testing.T, q string) {
	t.Helper()
	store := storage.NewStore()
	pool := storage.NewPool(store, 4) // tiny buffer pool: page reads hit the store
	db := &testDB{
		cat:     catalog.New(),
		pool:    pool,
		heaps:   map[string]*storage.Heap{},
		indexes: map[string]*storage.BTree{},
	}
	db.createTable(t, "CREATE TABLE big (id INT, pad TEXT)")
	db.createTable(t, "CREATE TABLE small (id INT)")
	pad := strings.Repeat("p", 400)
	bigTbl, _ := db.cat.Get("big")
	h := db.heaps["big"]
	for i := 0; i < 2000; i++ {
		if _, err := h.Insert(versionOf(t, bigTbl.Schema, value.Row{value.NewInt(int64(i)), value.NewText(pad)})); err != nil {
			t.Fatal(err)
		}
	}
	smallTbl, _ := db.cat.Get("small")
	hs := db.heaps["small"]
	for i := 0; i < 200; i++ {
		if _, err := hs.Insert(versionOf(t, smallTbl.Schema, value.Row{value.NewInt(int64(i))})); err != nil {
			t.Fatal(err)
		}
	}
	total := h.Pages()
	if total < 20 {
		t.Fatalf("want a big probe table, got %d pages", total)
	}

	opt := plan.Options{DisableJoinReorder: true, DisableIndex: true}
	node := db.plan(t, q, opt)
	before := store.Reads()
	rows, err := runPull(node, db, BuildConfig{PageRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("LIMIT 10 returned %d rows", len(rows))
	}
	readPages := int(store.Reads() - before)
	if readPages > total/4 {
		t.Fatalf("join LIMIT 10 read %d of %d probe heap pages; the probe side should stream", readPages, total)
	}

	// Same through the staged driver.
	onEachPool(t, func(t *testing.T, sp *StagePool) {
		before := store.Reads()
		node := db.plan(t, q, opt)
		rows, err := RunStaged(node, db, sp, StagedOptions{PageRows: 8, BufferPages: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 10 {
			t.Fatalf("staged LIMIT 10 returned %d rows", len(rows))
		}
		readPages := int(store.Reads() - before)
		if readPages > total/2 {
			t.Fatalf("staged join LIMIT 10 read %d of %d probe heap pages", readPages, total)
		}
	})
}

// planJoin binds q over two tables l and r, both (id INT, grp INT), and
// returns its join node: unlike a bare plan.Join literal it carries real
// schemas, so a hashJoin built on it presizes its output arena.
func planJoin(tb testing.TB, q string) *plan.Join {
	tb.Helper()
	cat := catalog.New()
	for _, name := range []string{"l", "r"} {
		cols := []catalog.Column{{Name: "id", Type: value.Int}, {Name: "grp", Type: value.Int}}
		if _, err := cat.Create(name, catalog.Schema{Columns: cols}); err != nil {
			tb.Fatal(err)
		}
	}
	node, err := plan.BindSelect(cat, sql.MustParse(q).(*sql.Select), plan.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for {
		if j, ok := node.(*plan.Join); ok {
			return j
		}
		node = node.Children()[0]
	}
}

// idGrpRows returns n rows (i, i%10).
func idGrpRows(n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 10))}
	}
	return rows
}

// TestKeylessJoinNeverSpills: at the 64 KB WorkMem floor a build side the
// equi join must partition stays resident when the join has no key — its one
// chain cannot be partitioned — so no spill file is ever created.
func TestKeylessJoinNeverSpills(t *testing.T) {
	probe, build := idGrpRows(20), idGrpRows(3000)
	for _, tc := range []struct {
		q     string
		keyed bool
		rows  int
	}{
		{"SELECT * FROM l JOIN r ON l.grp = r.grp", true, 20 * 300},
		{"SELECT * FROM l, r", false, 20 * 3000},
	} {
		sm := &SpillMetrics{}
		j := &hashJoin{node: planJoin(t, tc.q), left: newReplay(probe), right: newReplay(build),
			pageRows: 16, workMem: 1, spillM: sm} // clamps to MinWorkMem
		if got := len(drainOpen(t, j)); got != tc.rows {
			t.Fatalf("%s: %d rows, want %d", tc.q, got, tc.rows)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		st := sm.Stats()
		if tc.keyed && st.JoinSpills == 0 {
			t.Fatalf("%s: the build side must exceed the budget; test is vacuous (%+v)", tc.q, st)
		}
		if !tc.keyed && (st.JoinSpills != 0 || st.FilesCreated != 0) {
			t.Fatalf("%s: a key-less join spilled: %+v", tc.q, st)
		}
	}
}

// TestJoinResidualRejectsReuseArena: a residual rejecting about half the
// candidates must hand each rejected row's arena slot back, so an output page
// costs one arena allocation rather than the regrowth consumed slots force.
// Pages come unpooled (two allocations each) so the count is exact under the
// race detector too, whose sync.Pool drops items at random.
func TestJoinResidualRejectsReuseArena(t *testing.T) {
	const pageRows = 64
	j := &hashJoin{node: planJoin(t, "SELECT * FROM l JOIN r ON l.grp < r.grp"),
		left:     &replaySrc{rows: idGrpRows(512), pageRows: 512},
		right:    &replaySrc{rows: idGrpRows(64), pageRows: 64},
		pageRows: pageRows}
	j.resid = plan.CompilePredicate(j.node.Residual)
	out := 0
	run := func() {
		if err := j.Open(); err != nil {
			t.Fatal(err)
		}
		out = 0
		for {
			pg, err := j.Next()
			if err != nil {
				t.Fatal(err)
			}
			if pg == nil {
				break
			}
			out += pg.Len()
			pg.Release()
		}
	}
	allocs := testing.AllocsPerRun(5, run)
	pages := (out + pageRows - 1) / pageRows
	// A page header, its row array and one arena per output page, plus a
	// fixed cost for the build table that does not grow with the output.
	if limit := float64(3*pages + 64); allocs > limit {
		t.Fatalf("%.0f allocations for %d output pages (limit %.0f): rejected rows keep their arena slots", allocs, pages, limit)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJoinDuplicateKeysKeepBuildOrder: a probe row's matches come out in
// build arrival order — in memory, inside a grace partition, and in the
// key-less join, whose one chain is the whole build side. Probe rows are
// (i%9, i) for i < 40 and build rows (j%7, j) for j < 3000, so most probe
// rows match hundreds of build rows sharing one key, and keys 7 and 8 match
// none.
func TestJoinDuplicateKeysKeepBuildOrder(t *testing.T) {
	mkRows := func(n, mod int) []value.Row {
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{value.NewInt(int64(i % mod)), value.NewInt(int64(i))}
		}
		return rows
	}
	probe, build := mkRows(40, 9), mkRows(3000, 7)
	// matches lists, probe row by probe row, the build ids it must be paired
	// with, in arrival order.
	matches := func(keyless bool) [][]int64 {
		out := make([][]int64, len(probe))
		for i := range probe {
			for j := range build {
				if keyless || i%9 == j%7 {
					out[i] = append(out[i], int64(j))
				}
			}
		}
		return out
	}
	keyed := &plan.Join{L: &plan.SeqScan{}, R: &plan.SeqScan{}, LeftKeys: []int{0}, RightKey: []int{0}}
	keyless := &plan.Join{L: &plan.SeqScan{}, R: &plan.SeqScan{}}
	for _, tc := range []struct {
		name    string
		node    *plan.Join
		workMem int64
		grace   bool
	}{
		{"in-memory", keyed, 1 << 30, false},
		{"grace", keyed, 1, true}, // clamps to MinWorkMem
		{"keyless", keyless, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sm := &SpillMetrics{}
			j := &hashJoin{node: tc.node, left: newReplay(probe), right: newReplay(build),
				pageRows: 16, workMem: tc.workMem, spillM: sm}
			rows := drainOpen(t, j)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if st := sm.Stats(); (st.JoinSpills > 0) != tc.grace || st.FilesLive() != 0 {
				t.Fatalf("want grace=%v and no live files: %+v", tc.grace, st)
			}
			// Group the output by probe row, keeping the order of each
			// probe row's matches; outside grace the probe rows themselves
			// must come in order too.
			want := matches(tc.node.LeftKeys == nil)
			got := make([][]int64, len(probe))
			var probeOrder []int64
			for _, r := range rows {
				i := r[1].Int()
				if len(probeOrder) == 0 || probeOrder[len(probeOrder)-1] != i {
					probeOrder = append(probeOrder, i)
				}
				got[i] = append(got[i], r[3].Int())
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("probe row %d matched build rows %v, want %v", i, got[i], want[i])
				}
			}
			if !tc.grace && !slices.IsSorted(probeOrder) {
				t.Fatalf("probe rows out of order: %v", probeOrder)
			}
		})
	}
}

// TestJoinTableAllocatesPerChunk: the join's hash table allocates per chunk
// of its storage, not per build key — an in-memory equi join over 30,000
// distinct build keys stays far below one allocation per key. Pages come
// unpooled so the count is exact under the race detector too, whose
// sync.Pool drops items at random.
func TestJoinTableAllocatesPerChunk(t *testing.T) {
	const n = 30_000
	rows := idGrpRows(n)
	j := &hashJoin{node: planJoin(t, "SELECT * FROM l JOIN r ON l.id = r.id"),
		left:     &replaySrc{rows: rows, pageRows: 1024},
		right:    &replaySrc{rows: rows, pageRows: 1024},
		pageRows: 1024, workMem: 1 << 30}
	out := 0
	run := func() {
		if err := j.Open(); err != nil {
			t.Fatal(err)
		}
		out = 0
		for {
			pg, err := j.Next()
			if err != nil {
				t.Fatal(err)
			}
			if pg == nil {
				break
			}
			out += pg.Len()
			pg.Release()
		}
	}
	allocs := testing.AllocsPerRun(3, run)
	if out != n {
		t.Fatalf("join produced %d rows, want %d", out, n)
	}
	if allocs > 1000 {
		t.Fatalf("an in-memory join over %d build keys allocates %.0f objects, want at most 1,000", n, allocs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
