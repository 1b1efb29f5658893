package exec

import (
	"context"
	"testing"

	"stagedb/internal/catalog"
	"stagedb/internal/plan"
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
		Algo: plan.HashJoin, L: &plan.SeqScan{}, R: &plan.SeqScan{},
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

// TestHashJoinStreamMatchesMaterialized: the streaming probe must produce
// exactly the rows the old materializing join did, duplicates and residuals
// included.
func TestHashJoinStreamCorrectness(t *testing.T) {
	db := seedDB(t)
	// Duplicate join keys on both sides plus a residual condition.
	db.createTable(t, "CREATE TABLE l (k INT, v INT)")
	db.createTable(t, "CREATE TABLE r (k INT, w INT)")
	for i := 0; i < 30; i++ {
		db.insert(t, "l", value.Row{value.NewInt(int64(i % 5)), value.NewInt(int64(i))})
	}
	for i := 0; i < 20; i++ {
		db.insert(t, "r", value.Row{value.NewInt(int64(i % 4)), value.NewInt(int64(i))})
	}
	q := "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k WHERE l.v + r.w > 10"
	hj := plan.HashJoin
	got := db.query(t, q, plan.Options{ForceJoin: &hj})
	nl := plan.NestedLoopJoin
	want := db.query(t, q, plan.Options{ForceJoin: &nl})
	sameRows(t, got, want)
}

// TestJoinLimitReadsPrefix: end-to-end, a LIMIT over a join must stop the
// probe-side heap scan after a prefix of its pages — the probe side is no
// longer materialized.
func TestJoinLimitReadsPrefix(t *testing.T) {
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
	pad := make([]byte, 400)
	for i := range pad {
		pad[i] = 'p'
	}
	bigTbl, _ := db.cat.Get("big")
	h := db.heaps["big"]
	for i := 0; i < 2000; i++ {
		rec, err := storage.EncodeRow(bigTbl.Schema, value.Row{value.NewInt(int64(i)), value.NewText(string(pad))})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	smallTbl, _ := db.cat.Get("small")
	hs := db.heaps["small"]
	for i := 0; i < 200; i++ {
		rec, _ := storage.EncodeRow(smallTbl.Schema, value.Row{value.NewInt(int64(i))})
		if _, err := hs.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	total := h.Pages()
	if total < 20 {
		t.Fatalf("want a big probe table, got %d pages", total)
	}

	// FROM order keeps big on the left (probe side); the hash join builds on
	// small and probes big page-at-a-time.
	q := "SELECT b.id FROM big b, small s WHERE b.id = s.id LIMIT 10"
	hj := plan.HashJoin
	opt := plan.Options{DisableJoinReorder: true, DisableIndex: true, ForceJoin: &hj}
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
