package stagedb

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// liveHeap is the heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestPointReadsRetainNothing: an auto-commit read leaves no log record, no
// stage sample and no transaction-status entry behind, so a database that
// only serves reads does not grow. A transaction that wrote still keeps its
// status entry until vacuum.
func TestPointReadsRetainNothing(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	var load strings.Builder
	load.WriteString("CREATE TABLE acct (id INT PRIMARY KEY, bal INT); INSERT INTO acct VALUES ")
	for i := 0; i < 1000; i++ {
		if i > 0 {
			load.WriteByte(',')
		}
		fmt.Fprintf(&load, "(%d, %d)", i, i*10)
	}
	if err := db.ExecScript(load.String()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c := db.Conn()
	read := func(n int) {
		for i := 0; i < n; i++ {
			res, err := c.ExecContext(ctx, "SELECT bal FROM acct WHERE id = ?", i%1000)
			if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(i%1000*10) {
				t.Fatalf("read %d: %v, %v", i, res, err)
			}
		}
	}
	reads := 100_000
	if testing.Short() {
		reads = 20_000
	}
	read(1000)
	base := liveHeap()
	read(reads)
	if grown := liveHeap() - base; grown > 2<<20 {
		t.Errorf("live heap grew %d bytes over %d reads (%.0f B/read), want < 2 MB", grown, reads, float64(grown)/float64(reads))
	}
	atRest := db.MVCCStats().StatusEntries
	if atRest > 4 {
		t.Errorf("%d transaction-status entries after %d reads, want only the loader's", atRest, reads)
	}
	for _, s := range db.Stages() {
		if s.Serviced > 0 && s.MeanService != s.Busy/time.Duration(s.Serviced) {
			t.Errorf("stage %s: MeanService %v != Busy %v / Serviced %d", s.Name, s.MeanService, s.Busy, s.Serviced)
		}
	}

	// Rolled-back reads leave nothing either.
	for i := 0; i < 100; i++ {
		for _, q := range []string{"BEGIN", "SELECT bal FROM acct WHERE id = 1", "ROLLBACK"} {
			if _, err := c.ExecContext(ctx, q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	if got := db.MVCCStats().StatusEntries; got != atRest {
		t.Errorf("%d status entries after read-only rollbacks, want %d", got, atRest)
	}

	// A writer's entry stays — versions carry its id — until vacuum prunes it.
	if _, err := c.ExecContext(ctx, "UPDATE acct SET bal = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if got := db.MVCCStats().StatusEntries; got != atRest+1 {
		t.Errorf("%d status entries after one writing transaction, want %d", got, atRest+1)
	}
	if _, err := db.Vacuum(ctx); err != nil {
		t.Fatal(err)
	}
	if got := db.MVCCStats().StatusEntries; got > 1 {
		t.Errorf("%d status entries after vacuum, want at most its own", got)
	}
}
