package stagedb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// loadPadded creates a multi-page table of n padded rows.
func loadPadded(t testing.TB, db *DB, n int) {
	t.Helper()
	if _, err := db.ExecContext(t.Context(), "CREATE TABLE padded (id INT PRIMARY KEY, grp INT, pad TEXT)"); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("y", 300)
	for start := 0; start < n; start += 100 {
		var b strings.Builder
		b.WriteString("INSERT INTO padded VALUES ")
		for i := start; i < start+100 && i < n; i++ {
			if i > start {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, '%s')", i, i%4, pad)
		}
		if _, err := db.ExecContext(t.Context(), b.String()); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze("padded"); err != nil {
		t.Fatal(err)
	}
}

// TestScanSharesSurface exercises the public sharing knobs and counters:
// the staged engine shares by default, DisableSharedScans turns it off, and
// concurrent identical queries return identical multisets either way.
func TestScanSharesSurface(t *testing.T) {
	db := mustOpen(t, Options{PoolFrames: 8}) // tiny pool: page reads hit the store
	defer db.Close()
	loadPadded(t, db, 800)

	want, err := db.ExecContext(t.Context(), "SELECT COUNT(*) FROM padded")
	if err != nil {
		t.Fatal(err)
	}
	if want.Rows[0][0].Int() != 800 {
		t.Fatalf("count: %v", want.Rows)
	}

	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := db.Conn()
			res, err := conn.ExecContext(t.Context(), "SELECT COUNT(*) FROM padded WHERE grp < 4")
			if err != nil {
				t.Error(err)
				return
			}
			if res.Rows[0][0].Int() != 800 {
				t.Errorf("shared count: %v", res.Rows)
			}
		}()
	}
	wg.Wait()

	st := db.ScanShares()
	if st.Starts == 0 {
		t.Fatalf("staged engine should have started shared scans: %+v", st)
	}
	if st.PagesDecoded == 0 || st.PagesDelivered == 0 {
		t.Fatalf("fan-out bookkeeping looks wrong: %+v", st)
	}
	if r, _ := db.IOStats(); r == 0 {
		t.Fatal("IOStats should report page reads")
	}

	// The \stages surface carries the share counters on the fscan stage.
	found := false
	for _, s := range db.Stages() {
		if s.Name == "fscan" && len(s.Counters) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("fscan stage snapshot should carry share counters")
	}

	off := mustOpen(t, Options{DisableSharedScans: true})
	defer off.Close()
	loadPadded(t, off, 200)
	if _, err := off.ExecContext(t.Context(), "SELECT COUNT(*) FROM padded"); err != nil {
		t.Fatal(err)
	}
	if st := off.ScanShares(); st != (ScanShareStats{}) {
		t.Fatalf("DisableSharedScans should zero the counters: %+v", st)
	}
}
