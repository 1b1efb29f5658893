package stagedb

import (
	"fmt"
	"strings"
	"testing"
)

// stageArrivals maps each stage to the packets or tasks it has received.
func stageArrivals(db *DB) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range db.Stages() {
		out[s.Name] = s.Enqueued
	}
	return out
}

// TestAdHocPointReadItinerary: once its text is cached, an ad-hoc `?` point
// read visits execute and disconnect only — no connect, parse or optimize,
// and no operator pipeline on iscan — and every call is a plan-cache hit.
func TestAdHocPointReadItinerary(t *testing.T) {
	db := mustOpen(t, Options{})
	defer db.Close()
	ctx := t.Context()
	var load strings.Builder
	load.WriteString("INSERT INTO acct VALUES ")
	for i := 0; i < 100; i++ {
		if i > 0 {
			load.WriteByte(',')
		}
		fmt.Fprintf(&load, "(%d, %d)", i, i*10)
	}
	if err := db.ExecScript(ctx, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT); "+load.String()); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT bal FROM acct WHERE id = ?"
	c := db.Conn()
	if _, err := c.ExecContext(ctx, q, 0); err != nil { // warm-up: caches the text
		t.Fatal(err)
	}
	before, hits0 := stageArrivals(db), db.PlanCacheStats().Hits
	const n = 50
	for i := 0; i < n; i++ {
		res, err := c.ExecContext(ctx, q, i)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(i*10) {
			t.Fatalf("id %d: %v", i, res.Rows)
		}
	}
	after := stageArrivals(db)
	for stage, want := range map[string]int64{"connect": 0, "parse": 0, "optimize": 0, "iscan": 0, "execute": n, "disconnect": n} {
		if got := after[stage] - before[stage]; got != want {
			t.Errorf("%s: %d arrivals over %d point reads, want %d", stage, got, n, want)
		}
	}
	if got := db.PlanCacheStats().Hits - hits0; got != n {
		t.Errorf("%d plan-cache hits over %d point reads, want %d", got, n, n)
	}

	// A `?` above an aggregation gets a generic plan, so its text is cached
	// and its second call is a hit; a text whose generic plan cannot be
	// built runs on the full itinerary, as a literal text would.
	for _, k := range []struct {
		q    string
		arg  int
		hits int64
	}{
		{"SELECT bal / 100, COUNT(*) FROM acct GROUP BY bal / 100 HAVING COUNT(*) > ?", 5, 1},
		{"SELECT bal / 100, SUM(bal) * ? FROM acct GROUP BY bal / 100", 5, 1},
		{"SELECT bal / ?, COUNT(*) FROM acct GROUP BY bal / 100", 100, 0},
	} {
		hits0 := db.PlanCacheStats().Hits
		for range 2 {
			res, err := c.ExecContext(ctx, k.q, k.arg)
			if err != nil {
				t.Fatalf("%s: %v", k.q, err)
			}
			if len(res.Rows) != 10 {
				t.Fatalf("%s: %d groups, want 10", k.q, len(res.Rows))
			}
		}
		if got := db.PlanCacheStats().Hits - hits0; got != k.hits {
			t.Errorf("%s: %d plan-cache hits over two calls, want %d", k.q, got, k.hits)
		}
	}

	// A non-SELECT through QueryContext is still refused, with arguments too.
	if _, err := c.QueryContext(ctx, "UPDATE acct SET bal = ? WHERE id = 1", 5); err == nil || !strings.Contains(err.Error(), "requires a SELECT") {
		t.Fatalf("QueryContext of an UPDATE with arguments: err = %v", err)
	}
	// A wrong argument count keeps the unprepared path's error.
	if _, err := c.ExecContext(ctx, q, 1, 2); err == nil || !strings.Contains(err.Error(), "wants 1 parameter(s), got 2") {
		t.Fatalf("two arguments for one placeholder: err = %v", err)
	}
}
