// OLTP: many concurrent clients running short transactions against both
// architectures — the thread-per-worker baseline of §3.1 and the staged
// engine of §4.1 — with per-stage monitoring on the staged side.
//
// This exercises the paper's motivating scenario: massive concurrency of
// small requests, where the staged design's bounded queues give back-pressure
// instead of thrashing.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"stagedb"
)

const (
	clients  = 16
	txnsEach = 50
	accounts = 200
)

func load(ctx context.Context, db *stagedb.DB) {
	if err := db.ExecScript(ctx, "CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)"); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < accounts; i += 50 {
		stmt := "INSERT INTO accounts VALUES "
		for j := i; j < i+50; j++ {
			if j > i {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 1000)", j)
		}
		if _, err := db.ExecContext(ctx, stmt); err != nil {
			log.Fatal(err)
		}
	}
}

// run fires `clients` concurrent sessions, each transferring between two
// accounts txnsEach times, and returns wall time.
func run(ctx context.Context, db *stagedb.DB) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn := db.Conn()
			for i := 0; i < txnsEach; i++ {
				from := (c*31 + i*17) % accounts
				to := (from + 1) % accounts
				// The whole transaction travels as one request; deadlock
				// victims are rolled back by the engine and simply move on.
				conn.ExecTxn(ctx, []string{
					"BEGIN",
					fmt.Sprintf("UPDATE accounts SET balance = balance - 10 WHERE id = %d", from),
					fmt.Sprintf("UPDATE accounts SET balance = balance + 10 WHERE id = %d", to),
					"COMMIT",
				})
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

func verify(ctx context.Context, db *stagedb.DB) {
	res, err := db.ExecContext(ctx, "SELECT SUM(balance), COUNT(*) FROM accounts")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  invariant: total balance = %v across %v accounts (must be %d)\n",
		res.Rows[0][0], res.Rows[0][1], accounts*1000)
}

func main() {
	fmt.Printf("OLTP: %d clients x %d transfer transactions\n\n", clients, txnsEach)
	ctx := context.Background()

	threaded, err := stagedb.Open(stagedb.Options{Mode: stagedb.Threaded, Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	load(ctx, threaded)
	d := run(ctx, threaded)
	fmt.Printf("threaded worker pool: %v (%.0f txn/s)\n", d, float64(clients*txnsEach)/d.Seconds())
	verify(ctx, threaded)
	threaded.Close()

	staged, err := stagedb.Open(stagedb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	load(ctx, staged)
	d = run(ctx, staged)
	fmt.Printf("\nstaged engine:        %v (%.0f txn/s)\n", d, float64(clients*txnsEach)/d.Seconds())
	verify(ctx, staged)

	fmt.Println("\nper-stage monitors (the §5.2 tuning surface):")
	for _, s := range staged.Stages() {
		if s.Serviced > 0 {
			fmt.Printf("  %-12s serviced=%-6d maxQueue=%-4d mean=%v\n",
				s.Name, s.Serviced, s.MaxQueue, s.MeanService)
		}
	}
	staged.Close()
}
