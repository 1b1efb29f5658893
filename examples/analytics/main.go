// Analytics: a Wisconsin-style decision-support session on the staged
// engine — bulk load, statistics, join/aggregate pipelines across the
// fscan/join/aggr stages, plan inspection, and the §4.4(c) page-size knob.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"stagedb"
	"stagedb/internal/workload"
)

const rows = 5000

func open(ctx context.Context, pageRows int) *stagedb.DB {
	db, err := stagedb.Open(stagedb.Options{PageRows: pageRows})
	if err != nil {
		log.Fatal(err)
	}
	for _, tbl := range []string{"tenktup1", "tenktup2"} {
		if _, err := db.ExecContext(ctx, workload.WisconsinDDL(tbl)); err != nil {
			log.Fatal(err)
		}
		for _, stmt := range workload.WisconsinRows(tbl, rows, 7, 250) {
			if _, err := db.ExecContext(ctx, stmt); err != nil {
				log.Fatal(err)
			}
		}
		if err := db.Analyze(tbl); err != nil {
			log.Fatal(err)
		}
	}
	return db
}

func main() {
	fmt.Printf("loading 2 x %d Wisconsin rows...\n", rows)
	ctx := context.Background()
	db := open(ctx, 0)
	defer db.Close()

	queries := []string{
		// Range selection through the primary-key index.
		"SELECT COUNT(*) FROM tenktup1 WHERE unique2 BETWEEN 100 AND 999",
		// Join + group-by across the staged operators.
		`SELECT a.ten, COUNT(*) AS n, AVG(b.unique1) AS avg1
		 FROM tenktup1 a JOIN tenktup2 b ON a.unique1 = b.unique1
		 WHERE a.four = 2 GROUP BY a.ten ORDER BY a.ten`,
		// Aggregation with HAVING.
		`SELECT hundred, COUNT(*) FROM tenktup1
		 GROUP BY hundred HAVING COUNT(*) > 40 ORDER BY hundred LIMIT 5`,
	}
	for _, q := range queries {
		plan, err := db.Explain(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nquery: %s\nplan:\n%s", squish(q), plan)
		start := time.Now()
		res, err := db.ExecContext(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("-> %d rows in %v; first: %v\n", len(res.Rows), time.Since(start), first(res))
	}

	// Streaming: a Rows cursor sees the first page while the scan is still
	// running, and Close after a prefix abandons the rest of the pipeline —
	// client memory stays O(page) however large the result.
	start := time.Now()
	rows, err := db.QueryContext(ctx,
		"SELECT unique1, stringu1 FROM tenktup1 WHERE twenty = ?", 3)
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	var firstRow time.Duration
	for rows.Next() && n < 10 {
		if n == 0 {
			firstRow = time.Since(start)
		}
		n++
	}
	if err := rows.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstreamed %d rows; first row after %v, closed after a prefix (outstanding pages: %d)\n",
		n, firstRow, db.PagePoolStats().Outstanding)

	// §4.4(c): the page size for intermediate results is a tuning knob.
	fmt.Println("\npage-size sweep on the join pipeline (smaller = chattier exchanges):")
	join := `SELECT a.ten, COUNT(*) FROM tenktup1 a JOIN tenktup2 b
	         ON a.unique1 = b.unique1 GROUP BY a.ten`
	for _, pr := range []int{1, 16, 64, 256} {
		db2 := open(ctx, pr)
		start := time.Now()
		if _, err := db2.ExecContext(ctx, join); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  pageRows=%-4d %v\n", pr, time.Since(start))
		db2.Close()
	}
}

func first(res *stagedb.Result) string {
	if len(res.Rows) == 0 {
		return "(none)"
	}
	return res.Rows[0].String()
}

func squish(s string) string {
	out := ""
	space := false
	for _, r := range s {
		if r == ' ' || r == '\t' || r == '\n' {
			if !space {
				out += " "
			}
			space = true
			continue
		}
		space = false
		out += string(r)
	}
	return out
}
