package server

// Torture harness: the server under deliberate hostility. Three attack
// shapes, three invariants.
//
//   - Overload: 256 concurrent clients mixing streaming reads, slow reads,
//     DML, sub-millisecond deadlines, quota-exceeding tenants, and abrupt
//     TCP disconnects (including mid-transaction). The server may shed, time
//     out, and abort freely — what it may not do is leak a goroutine, a
//     pooled page, or a spill file, or stop serving afterwards.
//   - Drain under load: SIGTERM's code path (Shutdown then Close) fires in
//     the middle of a durable write storm; every acknowledged commit must be
//     present after reopen.
//   - Kill: the daemon process is SIGKILLed mid-load; every commit a client
//     saw acknowledged over the wire must survive recovery exactly once.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"stagedb"
	"stagedb/client"
	"stagedb/internal/wire"
)

// assertGoroutinesReturn polls until the goroutine count falls back to the
// pre-test baseline (plus scheduler slack); on failure it dumps all stacks.
func assertGoroutinesReturn(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+4 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutine leak: baseline=%d now=%d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
}

// abruptTxnDisconnect opens a raw wire connection, starts a transaction,
// inserts a row it never commits, and slams the TCP connection shut — the
// server must roll the transaction back and free the session's locks.
func abruptTxnDisconnect(addr, tenant string, id int) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, wire.MsgHello, wire.Hello{Proto: wire.Proto, Tenant: tenant}.Append(nil)); err != nil {
		return
	}
	if typ, _, err := wire.ReadFrame(nc); err != nil || typ != wire.MsgHelloOK {
		return
	}
	exec := func(sql string) bool {
		if err := wire.WriteFrame(nc, wire.MsgQuery, wire.Query{SQL: sql}.Append(nil)); err != nil {
			return false
		}
		for {
			typ, _, err := wire.ReadFrame(nc)
			if err != nil {
				return false
			}
			if typ == wire.MsgDone {
				return true
			}
		}
	}
	if !exec("BEGIN") {
		return
	}
	exec(fmt.Sprintf("INSERT INTO w VALUES (%d, 0)", id))
	// No COMMIT, no Quit: the deferred Close is the whole goodbye.
}

// abruptStreamDisconnect starts a streaming query and disconnects after the
// first result frame, leaving the producing pipeline to be torn down.
func abruptStreamDisconnect(addr, tenant, sql string) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, wire.MsgHello, wire.Hello{Proto: wire.Proto, Tenant: tenant}.Append(nil)); err != nil {
		return
	}
	if typ, _, err := wire.ReadFrame(nc); err != nil || typ != wire.MsgHelloOK {
		return
	}
	if err := wire.WriteFrame(nc, wire.MsgQuery, wire.Query{Flags: wire.FlagQueryOnly, SQL: sql}.Append(nil)); err != nil {
		return
	}
	wire.ReadFrame(nc) // one frame (Columns), then vanish mid-stream
}

func TestTortureOverload(t *testing.T) {
	clients, loadFor := 256, 3*time.Second
	if testing.Short() {
		clients, loadFor = 64, 1500*time.Millisecond
	}
	baseline := runtime.NumGoroutine()
	// Registered before startServer so it runs after the server's own
	// cleanup: by then every session goroutine must be gone.
	t.Cleanup(func() { assertGoroutinesReturn(t, baseline) })

	srv, _ := startServer(t, stagedb.Options{}, Options{
		MaxConnsPerTenant:    24,
		MaxInflightPerTenant: 8,
		MaxInflight:          64,
		ShedQueueDepth:       8,
		QueryTimeout:         5 * time.Second,
		WriteTimeout:         time.Second,
		DrainTimeout:         20 * time.Second,
	})
	admin := dial(t, srv, "admin")
	mustExec(t, admin, "CREATE TABLE t (id INT PRIMARY KEY, pad TEXT)")
	fillPadded(t, admin, "t", 2000, 512)
	mustExec(t, admin, "CREATE TABLE w (id INT PRIMARY KEY, n INT)")

	deadline := time.Now().Add(loadFor)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			tenant := fmt.Sprintf("T%d", i%6) // 6 tenants × quota 24 < 256: conn refusals guaranteed
			seq := 0
			for time.Now().Before(deadline) {
				mode := rng.Intn(10)
				if mode == 0 {
					abruptTxnDisconnect(srv.Addr(), tenant, 1_000_000+i*10_000+seq)
					seq++
					continue
				}
				if mode == 1 {
					abruptStreamDisconnect(srv.Addr(), tenant, "SELECT id, pad FROM t ORDER BY id")
					continue
				}
				c, err := client.Dial(context.Background(), srv.Addr(), client.Options{Tenant: tenant})
				if err != nil {
					// Conn quota refusal: expected under this much load.
					time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
					continue
				}
				switch {
				case mode < 5: // streaming read, sometimes deliberately slow
					rows, err := c.QueryContext(context.Background(), "SELECT id, pad FROM t WHERE id >= ?", rng.Intn(1500))
					if err == nil {
						slow := rng.Intn(4) == 0
						for n := 0; rows.Next(); n++ {
							if slow && n < 40 {
								time.Sleep(time.Millisecond)
							}
							if n > 200 {
								break // abandon mid-stream via Close
							}
						}
						rows.Close()
					}
				case mode < 8: // DML with unique keys
					c.ExecContext(context.Background(), "INSERT INTO w VALUES (?, ?)", i*10_000+seq, seq)
					seq++
				default: // sub-millisecond deadline: times out somewhere in the pipeline
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+rng.Intn(3))*time.Millisecond)
					c.ExecContext(ctx, "SELECT t1.id FROM t t1, t t2 WHERE t1.id = t2.id ORDER BY t1.pad")
					cancel()
				}
				c.Close()
			}
		}(i)
	}
	wg.Wait()

	stats := srv.AdmissionStats()
	t.Logf("admission counters after torture: %v", stats)
	if stats["queries_admitted"] == 0 {
		t.Fatal("torture ran no queries")
	}

	// The server survived and still answers: fresh connection, correct data.
	healthDeadline := time.Now().Add(10 * time.Second)
	for {
		c, err := client.Dial(context.Background(), srv.Addr(), client.Options{Tenant: "health"})
		if err == nil {
			res, err := c.ExecContext(context.Background(), "SELECT COUNT(*) FROM t")
			c.Close()
			if err == nil && res.Rows[0][0].Int() == 2000 {
				break
			}
		}
		if time.Now().After(healthDeadline) {
			t.Fatalf("server unhealthy after torture: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Leak assertions run in startServer's cleanup (pages, spill files)
	// and the goroutine check registered above.
}

// TestTortureDrainUnderLoad runs the SIGTERM code path — Shutdown, then
// Close — in the middle of a durable write storm and proves every commit a
// client saw acknowledged is present after reopen.
func TestTortureDrainUnderLoad(t *testing.T) {
	dir := t.TempDir()
	baseline := runtime.NumGoroutine()
	db, err := stagedb.Open(stagedb.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(context.Background(), db, Options{DrainTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	admin := dial(t, srv, "")
	mustExec(t, admin, "CREATE TABLE kv (id INT PRIMARY KEY, v INT)")

	const writers = 16
	var mu sync.Mutex
	acked := map[int]bool{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(context.Background(), srv.Addr(), client.Options{})
			if err != nil {
				return
			}
			defer c.Close()
			for seq := 0; ; seq++ {
				id := w*100_000 + seq
				if _, err := c.ExecContext(context.Background(), "INSERT INTO kv VALUES (?, ?)", id, id); err != nil {
					return // drain refusal or closed conn: stop writing
				}
				mu.Lock()
				acked[id] = true
				mu.Unlock()
			}
		}(w)
	}

	// Let the storm build, then drain exactly as cmd/stagedbd's signal
	// handler would.
	time.Sleep(300 * time.Millisecond)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain was forced: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()
	assertNoLeaks(t, db)
	if err := db.Close(); err != nil {
		t.Fatalf("close after drain: %v", err)
	}
	assertGoroutinesReturn(t, baseline)

	mu.Lock()
	n := len(acked)
	mu.Unlock()
	if n == 0 {
		t.Fatal("no commits acknowledged before drain")
	}
	db2, err := stagedb.Open(stagedb.Options{DataDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	res, err := db2.ExecContext(t.Context(), "SELECT id FROM kv ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	present := map[int]bool{}
	for _, r := range res.Rows {
		present[int(r[0].Int())] = true
	}
	for id := range acked {
		if !present[id] {
			t.Fatalf("acked commit %d lost across drain+reopen (%d acked, %d present)", id, n, len(present))
		}
	}
	t.Logf("drain under load: %d acked, %d present", n, len(present))
}

// TestTortureServerChild is the subprocess body for the kill test: a durable
// server daemon that publishes its address into the data directory and
// serves until the parent SIGKILLs it.
func TestTortureServerChild(t *testing.T) {
	dir := os.Getenv("STAGEDB_SERVERCRASH_DIR")
	if dir == "" {
		t.Skip("kill-harness child; driven by TestTortureKillExactlyOnce")
	}
	db, err := stagedb.Open(stagedb.Options{DataDir: dir, CheckpointBytes: 16 << 10})
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	defer db.Close()
	if _, err := db.ExecContext(t.Context(), "CREATE TABLE kv (id INT PRIMARY KEY, v INT)"); err != nil && !strings.Contains(err.Error(), "exists") {
		t.Fatalf("child create: %v", err)
	}
	srv, err := New(context.Background(), db, Options{})
	if err != nil {
		t.Fatalf("child listen: %v", err)
	}
	// Publish the ephemeral address atomically so the parent never reads a
	// partial write.
	tmp := filepath.Join(dir, "addr.tmp")
	if err := os.WriteFile(tmp, []byte(srv.Addr()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "addr")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		t.Fatalf("child serve: %v", err)
	}
}

// TestTortureKillExactlyOnce SIGKILLs a serving daemon mid-load and proves
// exactly-once durability over the wire: every INSERT a client saw complete
// (Done frame received) is present after recovery, and none is duplicated.
func TestTortureKillExactlyOnce(t *testing.T) {
	if os.Getenv("STAGEDB_SERVERCRASH_DIR") != "" {
		t.Skip("running as child")
	}
	iters := 3
	if testing.Short() {
		iters = 2
	}
	dir := t.TempDir()
	acked := map[int]bool{}
	var mu sync.Mutex

	for iter := 0; iter < iters; iter++ {
		os.Remove(filepath.Join(dir, "addr"))
		cmd := exec.Command(os.Args[0], "-test.run", "^TestTortureServerChild$")
		cmd.Env = append(os.Environ(), "STAGEDB_SERVERCRASH_DIR="+dir)
		out := &strings.Builder{}
		cmd.Stdout, cmd.Stderr = out, out
		if err := cmd.Start(); err != nil {
			t.Fatalf("start child: %v", err)
		}

		// Wait for the daemon to publish its address (recovery on reopen can
		// take a moment in later iterations).
		var addr string
		for waitUntil := time.Now().Add(20 * time.Second); ; {
			b, err := os.ReadFile(filepath.Join(dir, "addr"))
			if err == nil && len(b) > 0 {
				addr = string(b)
				break
			}
			if time.Now().After(waitUntil) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("iter %d: child never published address:\n%s", iter, out.String())
			}
			time.Sleep(10 * time.Millisecond)
		}

		// Write storm: acks recorded in THIS process only after the Done
		// frame arrived, so an ack is a claim the daemon must honor across
		// SIGKILL.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c, err := client.Dial(context.Background(), addr, client.Options{})
				if err != nil {
					return
				}
				defer c.Close()
				for seq := 0; ; seq++ {
					select {
					case <-stop:
						return
					default:
					}
					id := iter*1_000_000 + w*100_000 + seq
					if _, err := c.ExecContext(context.Background(), "INSERT INTO kv VALUES (?, ?)", id, id); err != nil {
						return // daemon died under us
					}
					mu.Lock()
					acked[id] = true
					mu.Unlock()
				}
			}(w)
		}
		time.Sleep(time.Duration(150+iter*100) * time.Millisecond)
		cmd.Process.Signal(syscall.SIGKILL)
		err := cmd.Wait()
		close(stop)
		wg.Wait()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ProcessState.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
			t.Fatalf("iter %d: child exited on its own (err=%v):\n%s", iter, err, out.String())
		}

		// Recover in-process and audit.
		db, err := stagedb.Open(stagedb.Options{DataDir: dir})
		if err != nil {
			t.Fatalf("iter %d: reopen after kill: %v", iter, err)
		}
		res, err := db.ExecContext(t.Context(), "SELECT id FROM kv ORDER BY id")
		if err != nil {
			t.Fatalf("iter %d: select: %v", iter, err)
		}
		present := map[int]bool{}
		for _, r := range res.Rows {
			id := int(r[0].Int())
			if present[id] {
				t.Fatalf("iter %d: row %d present twice — duplicate apply", iter, id)
			}
			present[id] = true
		}
		mu.Lock()
		for id := range acked {
			if !present[id] {
				mu.Unlock()
				db.Close()
				t.Fatalf("iter %d: acked commit %d lost across SIGKILL", iter, id)
			}
		}
		nAcked := len(acked)
		mu.Unlock()
		if n := db.SpillStats().FilesLive(); n != 0 {
			t.Fatalf("iter %d: %d spill files live after recovery", iter, n)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", iter, err)
		}
		t.Logf("iter %d: %d acked total, %d present", iter, nAcked, len(present))
		if iter == iters-1 && nAcked == 0 {
			t.Fatal("no commits acknowledged in any iteration — harness never exercised the wire")
		}
	}
}
