// Quickstart: open a staged database, define a schema, load rows, and run
// queries — the five-minute tour of the public API: streaming Rows cursors,
// `?` placeholders, prepared statements, and context cancellation.
package main

import (
	"context"
	"fmt"
	"log"

	"stagedb"
)

func main() {
	// The default options run the paper's staged architecture: connect ->
	// parse -> optimize -> execute -> disconnect, with staged relational
	// operators inside execute. Open validates the options.
	db, err := stagedb.Open(stagedb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Every call that runs SQL takes a context: canceling it abandons the
	// request wherever it stands in the pipeline.
	ctx := context.Background()
	if err := db.ExecScript(ctx, `
		CREATE TABLE movies (id INT PRIMARY KEY, title TEXT, year INT, rating FLOAT);
		CREATE TABLE screenings (movie_id INT, room TEXT, seats INT);
		CREATE INDEX idx_year ON movies (year);

		INSERT INTO movies VALUES
			(1, 'Metropolis', 1927, 8.3),
			(2, 'M', 1931, 8.3),
			(3, 'Modern Times', 1936, 8.5),
			(4, 'Casablanca', 1942, 8.5),
			(5, 'Rear Window', 1954, 8.5);
		INSERT INTO screenings VALUES
			(1, 'A', 120), (3, 'A', 120), (3, 'B', 80), (4, 'B', 80), (5, 'C', 40);
	`); err != nil {
		log.Fatal(err)
	}
	if err := db.Analyze("movies"); err != nil {
		log.Fatal(err)
	}

	// A filtered join with grouping, ordering and limiting, streamed through
	// a Rows cursor: pages arrive from the execute stage as we iterate, and
	// `?` binds the rating threshold.
	rows, err := db.QueryContext(ctx, `
		SELECT m.title, COUNT(*) AS rooms, SUM(s.seats) AS seats
		FROM movies m JOIN screenings s ON m.id = s.movie_id
		WHERE m.rating >= ?
		GROUP BY m.title
		ORDER BY seats DESC
		LIMIT 3`, 8.4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("screenings of top-rated movies:")
	for rows.Next() {
		var title string
		var nrooms, seats int64
		if err := rows.Scan(&title, &nrooms, &seats); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s rooms=%d seats=%d\n", title, nrooms, seats)
	}
	if err := rows.Close(); err != nil {
		log.Fatal(err)
	}

	// Prepared statements parse and plan once; each execution binds its
	// arguments and enters the pipeline directly at the execute stage.
	stmt, err := db.Prepare(ctx, "SELECT title FROM movies WHERE year BETWEEN ? AND ?")
	if err != nil {
		log.Fatal(err)
	}
	defer stmt.Close()
	fmt.Println("\nmovies by decade (one plan, three executions):")
	for _, decade := range [][2]int{{1920, 1929}, {1930, 1939}, {1940, 1949}} {
		res, err := stmt.ExecContext(ctx, decade[0], decade[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %ds:", decade[0])
		for _, row := range res.Rows {
			fmt.Printf(" %s;", row[0].Text())
		}
		fmt.Println()
	}
	pc := db.PlanCacheStats()
	fmt.Printf("plan cache: %d hits, %d misses\n", pc.Hits, pc.Misses)

	// Transactions: a reservation that fails rolls back atomically.
	conn := db.Conn()
	conn.ExecContext(ctx, "BEGIN")
	conn.ExecContext(ctx, "UPDATE screenings SET seats = seats - 200 WHERE room = 'C'")
	conn.ExecContext(ctx, "ROLLBACK")
	res, _ := db.ExecContext(ctx, "SELECT seats FROM screenings WHERE room = ?", "C")
	fmt.Printf("\nseats in room C after rollback: %v (unchanged)\n", res.Rows[0][0])

	// Context cancellation abandons a request between stages: the canceled
	// query fails instead of running, and any pages it produced recycle.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := db.QueryContext(canceled, "SELECT * FROM movies"); err != nil {
		fmt.Printf("canceled query: %v\n", err)
	}

	// The planner is inspectable: the year predicate uses the index.
	explain, err := db.Explain("SELECT title FROM movies WHERE year BETWEEN 1930 AND 1940")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nplan for a year-range query:")
	fmt.Print(explain)

	// Every stage reports its own statistics (§5.2 of the paper).
	fmt.Println("\nstage monitors:")
	for _, s := range db.Stages() {
		if s.Serviced > 0 {
			fmt.Printf("  %-12s serviced=%d mean=%v\n", s.Name, s.Serviced, s.MeanService)
		}
	}
}
