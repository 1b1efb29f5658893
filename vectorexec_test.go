package stagedb

import (
	"sync"
	"testing"
)

// TestPagePoolBalancesAfterQueries is the engine-level page-leak test: after
// a workload mixing full scans, shared concurrent scans, joins, aggregates,
// and LIMIT queries that abandon producers mid-stream, every exchange page
// checked out of the pool must be back (Outstanding == 0).
func TestPagePoolBalancesAfterQueries(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"staged", Options{ExecWorkers: 2}},
		{"threaded", Options{Mode: Threaded, Workers: 2}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			db := mustOpen(t, mode.opts)
			defer db.Close()
			loadPadded(t, db, 600)
			queries := []string{
				"SELECT * FROM padded",
				"SELECT grp, COUNT(*) FROM padded GROUP BY grp",
				"SELECT id FROM padded LIMIT 3",
				"SELECT a.id FROM padded a JOIN padded b ON a.id = b.id LIMIT 5",
				"SELECT DISTINCT grp FROM padded",
				"SELECT id FROM padded WHERE grp = 2 ORDER BY id DESC LIMIT 4",
			}
			// Concurrently too, so synchronized scans start mid-table.
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					conn := db.Conn()
					for _, q := range queries {
						if _, err := conn.Query(q); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			wg.Wait()
			if st := db.PagePoolStats(); st.Outstanding != 0 {
				t.Fatalf("page pool unbalanced after queries: %+v", st)
			}
			if st := db.PagePoolStats(); st.Hits == 0 {
				t.Fatalf("pool never recycled a page: %+v", st)
			}
		})
	}
}

// TestStagesExposePagePoolCounters: the pagepool pseudo-stage must surface
// pool counters through the §5.2 monitoring view (and thereby \stages).
func TestStagesExposePagePoolCounters(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	loadPadded(t, db, 200)
	if _, err := db.Query("SELECT grp, COUNT(*) FROM padded GROUP BY grp"); err != nil {
		t.Fatal(err)
	}
	for _, s := range db.Stages() {
		if s.Name == "pagepool" {
			if len(s.Counters) == 0 {
				t.Fatal("pagepool stage has no counters")
			}
			if s.Counters["pagepool.hits"]+s.Counters["pagepool.misses"] == 0 {
				t.Fatalf("pagepool counters never moved: %v", s.Counters)
			}
			return
		}
	}
	t.Fatal("no pagepool stage in Stages()")
}
