package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"stagedb/internal/value"
)

// loadFat creates a multi-page table of n padded rows and ANALYZEs it.
func loadFat(t *testing.T, db *DB, s *Session, n int) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE fat (id INT PRIMARY KEY, grp INT, pad TEXT)")
	pad := strings.Repeat("x", 300)
	for start := 0; start < n; start += 100 {
		var b strings.Builder
		b.WriteString("INSERT INTO fat VALUES ")
		for i := start; i < start+100 && i < n; i++ {
			if i > start {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, '%s')", i, i%4, pad)
		}
		mustExec(t, s, b.String())
	}
	if err := db.Analyze("fat"); err != nil {
		t.Fatal(err)
	}
}

func sortedRows(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestStagedSharedScansMatchBaseline floods the staged engine (scan sharing
// on by default) with simultaneous identical and differently-filtered
// queries; every result must match the single-query answer row for row.
func TestStagedSharedScansMatchBaseline(t *testing.T) {
	db := NewDB(Config{})
	s := db.NewSession()
	loadFat(t, db, s, 1500)

	staged := NewStaged(db, StagedConfig{})
	defer staged.Close()

	queries := []string{
		"SELECT id, grp FROM fat",
		"SELECT id, grp FROM fat",
		"SELECT id FROM fat WHERE grp = 0",
		"SELECT id FROM fat WHERE grp = 1",
		"SELECT id, grp FROM fat",
		"SELECT id FROM fat WHERE grp = 2",
		"SELECT id, grp FROM fat",
		"SELECT id FROM fat WHERE grp = 3",
	}
	want := make([][]string, len(queries))
	for i, q := range queries {
		res := mustExec(t, s, q) // Volcano pull driver: never shared
		want[i] = sortedRows(res.Rows)
	}

	const rounds = 3
	for r := 0; r < rounds; r++ {
		results := make([][]string, len(queries))
		errs := make([]error, len(queries))
		var wg sync.WaitGroup
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q string) {
				defer wg.Done()
				sess := db.NewSession()
				res, err := submitSQL(t, staged, sess, q)
				if err != nil {
					errs[i] = err
					return
				}
				results[i] = sortedRows(res.Rows)
			}(i, q)
		}
		wg.Wait()
		for i := range queries {
			if errs[i] != nil {
				t.Fatalf("round %d query %d: %v", r, i, errs[i])
			}
			if len(results[i]) != len(want[i]) {
				t.Fatalf("round %d query %d: %d rows, want %d", r, i, len(results[i]), len(want[i]))
			}
			for j := range results[i] {
				if results[i][j] != want[i][j] {
					t.Fatalf("round %d query %d row %d: got %s want %s", r, i, j, results[i][j], want[i][j])
				}
			}
		}
	}
}

// TestLimitReadsPrefix: streaming scans must stop heap iteration as soon as
// the LIMIT is satisfied — only a prefix of the table's pages is read from
// the simulated disk.
func TestLimitReadsPrefix(t *testing.T) {
	db := NewDB(Config{PoolFrames: 4}) // tiny pool: page reads hit the store
	s := db.NewSession()
	loadFat(t, db, s, 2000)

	tbl, err := db.cat.Get("fat")
	if err != nil {
		t.Fatal(err)
	}
	heap, err := db.HeapOf(tbl)
	if err != nil {
		t.Fatal(err)
	}
	total := heap.Pages()
	if total < 20 {
		t.Fatalf("want a big table, got %d pages", total)
	}

	before := db.Store().Reads()
	res := mustExec(t, s, "SELECT id FROM fat LIMIT 10")
	if len(res.Rows) != 10 {
		t.Fatalf("LIMIT 10 returned %d rows", len(res.Rows))
	}
	read := int(db.Store().Reads() - before)
	if read > total/4 {
		t.Fatalf("LIMIT 10 read %d of %d pages; scans must terminate early", read, total)
	}

	// A full scan, by contrast, reads them all (pool holds only 4 frames).
	before = db.Store().Reads()
	mustExec(t, s, "SELECT COUNT(*) FROM fat")
	if full := int(db.Store().Reads() - before); full < total-4 {
		t.Fatalf("full scan read %d of %d pages?", full, total)
	}
}

// TestScanDoesNotMaterialize: a streaming scan's live allocations are
// bounded by the page unit, not the table — a LIMIT query over a 2000-row
// table must allocate on the order of the rows it returns.
func TestScanDoesNotMaterialize(t *testing.T) {
	db := NewDB(Config{})
	s := db.NewSession()
	loadFat(t, db, s, 2000)

	allocs := testing.AllocsPerRun(10, func() {
		res, err := execSQL(t, s, "SELECT id FROM fat LIMIT 5")
		if err != nil || len(res.Rows) != 5 {
			t.Fatalf("limit query: %v", err)
		}
	})
	// Materializing all 2000 rows costs >= 3 allocations per row (row
	// slice, values, text). A streaming scan stays hundreds of times under.
	if allocs > 1500 {
		t.Fatalf("LIMIT 5 made %.0f allocations; scan is materializing the table", allocs)
	}
}
