// Command stagedbd serves a stagedb database over TCP.
//
//	$ go run ./cmd/stagedbd -addr 127.0.0.1:7878 -data /var/lib/stagedb
//
// Clients speak the length-prefixed frame protocol (package
// internal/wire) through the client package or the stagedb shell's
// -connect flag. The server fronts the engine with an admission-control
// stage: per-tenant connection and in-flight-query quotas, plus
// queue-depth load shedding driven by the engine's execute-stage queue —
// overload is rejected with retryable errors instead of queueing without
// bound.
//
// SIGINT/SIGTERM drains gracefully: the listener closes, new queries are
// refused with a draining error, in-flight queries finish under
// -drain-timeout (stragglers are then hard-canceled), and the database
// closes cleanly — final checkpoint, WAL released. A second signal kills
// the process immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stagedb"
	"stagedb/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7878", "TCP listen address")
	dataDir := flag.String("data", "", "data directory for a durable database (default $STAGEDB_DATADIR, empty = in-memory)")
	syncEvery := flag.Bool("sync", false, "fsync the log on every commit instead of group commit")
	threaded := flag.Bool("threaded", false, "run the worker-pool baseline (the query stages collapsed into one, Volcano operators) instead of the staged engine")
	workers := flag.Int("workers", 0, "worker-pool size (staged: per query stage; threaded: its one stage; 0 = defaults)")
	maxConns := flag.Int("max-conns-per-tenant", 0, "per-tenant connection quota (0 = 64)")
	maxTenantQ := flag.Int("max-inflight-per-tenant", 0, "per-tenant in-flight query quota (0 = 16)")
	maxInflight := flag.Int("max-inflight", 0, "global in-flight query cap (0 = 128)")
	shedDepth := flag.Int("shed-queue-depth", 0, "execute-queue depth past which new queries are shed (0 = 192, negative disables)")
	queryTimeout := flag.Duration("query-timeout", 0, "server-side cap on each query's runtime (0 = none)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-frame write deadline for slow clients (0 = 30s)")
	drainTimeout := flag.Duration("drain-timeout", 0, "shutdown wait for in-flight queries (0 = 15s)")
	flag.Parse()

	opts := stagedb.Options{DataDir: *dataDir, Workers: *workers}
	if *syncEvery {
		opts.Durability = stagedb.DurabilitySync
	}
	if *threaded {
		opts.Mode = stagedb.Threaded
	}
	db, err := stagedb.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stagedbd:", err)
		os.Exit(1)
	}

	// The server's base context is NOT the signal context: a signal starts
	// the drain, and only the drain deadline hard-cancels sessions.
	base := context.Background()
	srv, err := server.New(base, db, server.Options{
		Addr:                 *addr,
		MaxConnsPerTenant:    *maxConns,
		MaxInflightPerTenant: *maxTenantQ,
		MaxInflight:          *maxInflight,
		ShedQueueDepth:       *shedDepth,
		QueryTimeout:         *queryTimeout,
		WriteTimeout:         *writeTimeout,
		DrainTimeout:         *drainTimeout,
	})
	if err != nil {
		db.Close()
		fmt.Fprintln(os.Stderr, "stagedbd:", err)
		os.Exit(1)
	}
	fmt.Printf("stagedbd: listening on %s (durable=%v)\n", srv.Addr(), db.Durable())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	sigCtx, stop := signal.NotifyContext(base, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sigCtx.Done():
		stop() // a second signal now kills the process the default way
		fmt.Fprintln(os.Stderr, "stagedbd: signal received, draining...")
		start := time.Now()
		if err := srv.Shutdown(base); err != nil {
			fmt.Fprintln(os.Stderr, "stagedbd:", err)
		}
		fmt.Fprintf(os.Stderr, "stagedbd: drained in %v\n", time.Since(start).Round(time.Millisecond))
	case err := <-serveErr:
		stop()
		if err != nil {
			fmt.Fprintln(os.Stderr, "stagedbd: serve:", err)
		}
		srv.Shutdown(base)
	}

	// Close after drain: final checkpoint, clean WAL release.
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "stagedbd: close:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "stagedbd: clean shutdown")
}
