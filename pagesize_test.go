package stagedb_test

// pagesize_test.go checks that the exchange page size changes nothing but
// the handoffs: one query set gives the same answers at 1-, 4- and 64-row
// pages and under the width rule (PageRows 0), on the staged and the
// Volcano driver, at the default and the smallest WorkMem, embedded and
// streamed over the wire.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"stagedb"
	"stagedb/client"
	"stagedb/internal/server"
)

// How a case's rows are compared with the reference run's.
const (
	inOrder  = iota // ORDER BY: the same rows in the same order
	multiset        // the same rows in any order
	subset          // LIMIT without ORDER BY: n distinct rows of the reference
)

type agreeCase struct {
	q     string
	shape string // a plan node the query must exercise
	cmp   int
	n     int // subset: the rows the LIMIT returns
}

var agreeCases = []agreeCase{
	{"SELECT id, v FROM t WHERE v < 10", "SeqScan", multiset, 0},
	{"SELECT id, grp, pad FROM t WHERE v >= 100", "SeqScan", multiset, 0},
	{"SELECT id, v FROM t WHERE id >= 100 AND id < 2500", "IndexScan", multiset, 0},
	{"SELECT a.id, b.id, b.pad FROM t a JOIN t b ON a.grp = b.id", "Join", multiset, 0},
	{"SELECT a.id, u.id FROM t a JOIN u ON a.v < u.w WHERE a.id < 200", "Join", multiset, 0},
	{"SELECT grp, COUNT(*), SUM(v) FROM t GROUP BY grp", "Aggregate", multiset, 0},
	{"SELECT v, COUNT(*), MAX(pad) FROM t GROUP BY v", "Aggregate", multiset, 0},
	{"SELECT DISTINCT v FROM t", "Aggregate", multiset, 0},
	{"SELECT id, v, pad FROM t ORDER BY v, id", "Sort", inOrder, 0},
	{"SELECT id, v FROM t ORDER BY v DESC, id LIMIT 25", "TopN", inOrder, 0},
	{"SELECT id, v FROM t ORDER BY v, id LIMIT 9000 OFFSET 37", "Sort", inOrder, 0},
	{"SELECT id, v FROM t LIMIT 100 OFFSET 40", "Limit", subset, 100},
	{"SELECT a.id, b.id FROM t a JOIN t b ON a.grp = b.id LIMIT 70", "Limit", subset, 70},
}

// agreeRows is the row count of t: enough for several 512-row pages, and
// for every sort, aggregation and join build side to spill at MinWorkMem.
const agreeRows = 3000

func loadAgree(t *testing.T, db *stagedb.DB) {
	t.Helper()
	ctx := t.Context()
	if err := db.ExecScript(ctx, `
		CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT, pad TEXT);
		CREATE TABLE u (id INT PRIMARY KEY, w INT);
	`); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < agreeRows; lo += 500 {
		var b strings.Builder
		b.WriteString("INSERT INTO t VALUES ")
		for i := lo; i < lo+500; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d, 'pad-%06d')", i, i%50, i*7%1000, i*13%agreeRows)
		}
		if _, err := db.ExecContext(ctx, b.String()); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	b.WriteString("INSERT INTO u VALUES ")
	for i := 0; i < 50; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d)", i, i*20)
	}
	if _, err := db.ExecContext(ctx, b.String()); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{"t", "u"} {
		if err := db.Analyze(tbl); err != nil {
			t.Fatal(err)
		}
	}
}

// rowSource streams one query's rows; the embedded and the wire Rows both
// satisfy it.
type rowSource interface {
	Next() bool
	Row() stagedb.Row
	Err() error
	Close() error
}

func collect(t *testing.T, rows rowSource, err error) []string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for rows.Next() {
		out = append(out, rows.Row().String())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// waitQuiet waits until every exchange page is back in the pool and every
// spill file is gone.
func waitQuiet(t *testing.T, db *stagedb.DB, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for db.PagePoolStats().Outstanding != 0 || db.SpillStats().FilesLive() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d pages outstanding, %d spill files live", what, db.PagePoolStats().Outstanding, db.SpillStats().FilesLive())
		}
		time.Sleep(time.Millisecond)
	}
}

func agree(t *testing.T, c agreeCase, got, ref []string) {
	t.Helper()
	switch c.cmp {
	case inOrder:
		if !slices.Equal(got, ref) {
			t.Fatalf("%s: %d rows differ from the reference's %d in order", c.q, len(got), len(ref))
		}
	case multiset:
		if !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(ref))) {
			t.Fatalf("%s: %d rows differ from the reference's %d as a multiset", c.q, len(got), len(ref))
		}
	case subset:
		if len(got) != c.n {
			t.Fatalf("%s: %d rows, want %d", c.q, len(got), c.n)
		}
		seen := make(map[string]bool, len(got))
		for _, r := range got {
			if seen[r] || !slices.Contains(ref, r) {
				t.Fatalf("%s: row %s is repeated or not in the unlimited result", c.q, r)
			}
			seen[r] = true
		}
	}
}

// unlimited strips the LIMIT of a subset case: its rows are the set the
// limited rows are drawn from.
func unlimited(q string) string { return q[:strings.Index(q, " LIMIT ")] }

// TestPageSizeAgreement: every page size gives the reference answers — the
// Volcano driver's at 64-row pages and the default WorkMem — on both
// drivers, embedded and over the wire, and every case leaves no page
// outstanding and no spill file behind.
func TestPageSizeAgreement(t *testing.T) {
	ref := make(map[string][]string)
	open := func(t *testing.T, o stagedb.Options) *stagedb.DB {
		db, err := stagedb.Open(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		loadAgree(t, db)
		return db
	}
	refDB := open(t, stagedb.Options{Mode: stagedb.Threaded, PageRows: 64})
	for _, c := range agreeCases {
		plan, err := refDB.Explain(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, c.shape) {
			t.Fatalf("%s does not exercise a %s:\n%s", c.q, c.shape, plan)
		}
		q := c.q
		if c.cmp == subset {
			q = unlimited(q)
		}
		rows, err := refDB.QueryContext(t.Context(), q)
		ref[c.q] = collect(t, rows, err)
	}

	for _, mode := range []struct {
		name string
		mode stagedb.Mode
	}{{"staged", stagedb.Staged}, {"volcano", stagedb.Threaded}} {
		for _, workMem := range []int{0, 64 << 10} {
			for _, pageRows := range []int{1, 4, 64, 0} {
				name := fmt.Sprintf("%s/workmem=%d/pagerows=%d", mode.name, workMem, pageRows)
				t.Run(name, func(t *testing.T) {
					db := open(t, stagedb.Options{Mode: mode.mode, WorkMem: workMem, PageRows: pageRows})
					srv, err := server.New(context.Background(), db, server.Options{})
					if err != nil {
						t.Fatal(err)
					}
					served := make(chan error, 1)
					go func() { served <- srv.Serve() }()
					defer func() {
						srv.Shutdown(context.Background())
						if err := <-served; err != nil {
							t.Errorf("Serve: %v", err)
						}
					}()
					wc, err := client.Dial(t.Context(), srv.Addr(), client.Options{})
					if err != nil {
						t.Fatal(err)
					}
					defer wc.Close()
					for _, c := range agreeCases {
						rows, err := db.QueryContext(t.Context(), c.q)
						agree(t, c, collect(t, rows, err), ref[c.q])
						waitQuiet(t, db, c.q)
						wrows, err := wc.QueryContext(t.Context(), c.q)
						agree(t, c, collect(t, wrows, err), ref[c.q])
						waitQuiet(t, db, c.q+" (wire)")
					}
					if st := db.SpillStats(); workMem > 0 && (st.SortSpills == 0 || st.AggSpills == 0 || st.JoinSpills == 0) {
						t.Fatalf("at WorkMem %d some operator kind never spilled: %+v", workMem, st)
					}
				})
			}
		}
	}
}
