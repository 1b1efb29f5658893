package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"stagedb"
	"stagedb/client"
	"stagedb/internal/metrics"
)

// execer is the call both connection types share: client.Conn over the wire
// and stagedb.Conn embedded.
type execer interface {
	ExecContext(ctx context.Context, sqlText string, args ...any) (*stagedb.Result, error)
}

// histRow is one acknowledged insert into hist.
type histRow struct{ id, acct, delta int64 }

// ledger is what one client knows it was told: the balance deltas and hist
// rows the engine acknowledged. The read check and the durability check are
// both made against it.
type ledger struct {
	delta map[int64]int64
	hist  []histRow
}

// clientState is one closed-loop caller: it blocks on every reply, like the
// connection types it drives (which refuse a second in-flight query).
type clientState struct {
	id     int
	stream *opStream
	exec   execer
	embed  *stagedb.Conn // nil over the wire
	wire   *client.Conn  // nil embedded
	orc    *oracle
	led    ledger

	lat       map[string][]time.Duration
	firstRow  []time.Duration
	attempted int64
	failed    int64
	retried   int64
	firstErr  error
	elapsed   time.Duration
}

// do runs one op and checks its result. firstRow is the time to the first
// streamed row (0 for ops that return none).
func (c *clientState) do(ctx context.Context, o op) (firstRow time.Duration, err error) {
	chk := rowCheck{o: c.orc, op: o}
	switch o.Kind {
	case kRead, kUpdate, kInsert:
		res, err := c.exec.ExecContext(ctx, o.SQL, o.anyArgs()...)
		if err != nil {
			return 0, err
		}
		switch o.Kind {
		case kRead:
			id := o.Args[0]
			chk.readWant = balOf(int(id))
			if c.stream.workload != wlOLTPDurable || id%numClients == int64(c.id) {
				chk.readExact = true
				chk.readWant += c.led.delta[id]
			}
			for _, r := range res.Rows {
				chk.row(r)
			}
			return 0, chk.done()
		case kUpdate:
			if res.Affected != 1 {
				return 0, fmt.Errorf("wrong result: update id %d affected %d rows", o.Args[1], res.Affected)
			}
			c.led.delta[o.Args[1]] += o.Args[0]
		case kInsert:
			if res.Affected != 1 {
				return 0, fmt.Errorf("wrong result: insert affected %d rows", res.Affected)
			}
			c.led.hist = append(c.led.hist, histRow{o.Args[0], o.Args[1], o.Args[2]})
		}
		return 0, nil
	}
	start := time.Now()
	rows, err := c.embed.QueryContext(ctx, o.SQL, o.anyArgs()...)
	if err != nil {
		return 0, err
	}
	for rows.Next() {
		if chk.n == 0 {
			firstRow = time.Since(start)
		}
		chk.row(rows.Row())
	}
	if err := rows.Close(); err != nil {
		return 0, err
	}
	return firstRow, chk.done()
}

// loop issues ops until the deadline. When record is false (warm-up) nothing
// is kept but the ledger.
func (c *clientState) loop(ctx context.Context, until time.Time, record bool) {
	begin := time.Now()
	for time.Now().Before(until) && ctx.Err() == nil {
		o := c.stream.next()
		t0 := time.Now()
		first, err := c.do(ctx, o)
		if err != nil && stagedb.Retryable(err) {
			if record {
				c.retried++
			}
			first, err = c.do(ctx, o)
		}
		d := time.Since(t0)
		if !record {
			if err != nil && c.firstErr == nil {
				c.firstErr = fmt.Errorf("warm-up %s: %w", o.Kind, err)
			}
			continue
		}
		c.attempted++
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = fmt.Errorf("%s %v: %w", o.Kind, o.Args, err)
			}
			continue
		}
		c.lat[o.Kind] = append(c.lat[o.Kind], d)
		if o.Kind == kStream {
			c.firstRow = append(c.firstRow, first)
		}
	}
	if record {
		c.elapsed = time.Since(begin)
	}
}

// newClients connects the workload's callers to t.
func newClients(ctx context.Context, t *top, sz sizes, seed int64, orc *oracle) ([]*clientState, error) {
	cs := make([]*clientState, numClients)
	for i := range cs {
		c := &clientState{
			id:     i,
			stream: newOpStream(t.workload, sz, seed, i, int64(i)),
			orc:    orc,
			led:    ledger{delta: make(map[int64]int64)},
			lat:    make(map[string][]time.Duration),
		}
		if t.srv != nil {
			wc, err := client.Dial(ctx, t.srv.Addr(), client.Options{})
			if err != nil {
				closeClients(cs)
				return nil, err
			}
			c.wire, c.exec = wc, wc
		} else {
			c.embed = t.db.Conn()
			c.exec = c.embed
		}
		cs[i] = c
	}
	return cs, nil
}

func closeClients(cs []*clientState) {
	for _, c := range cs {
		if c != nil && c.wire != nil {
			c.wire.Close()
		}
	}
}

// phase runs every client until the deadline and waits for them.
func phase(ctx context.Context, cs []*clientState, d time.Duration, record bool) {
	until := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(ctx, until, record)
		}()
	}
	wg.Wait()
}

// counters is one reading of the public statistics accessors whose deltas
// over the two-client window the per-layer metrics use, plus the process's
// own. (Page I/O, plan-cache and per-shape spill counts come from the
// single-client counts pass, where they repeat exactly.)
type counters struct {
	stages   map[string]metrics.StageSnapshot
	wal      map[string]int64
	mvcc     stagedb.MVCCStats
	pagepool stagedb.PagePoolStats
	spill    stagedb.SpillStats
	shares   stagedb.ScanShareStats
	adm      map[string]int64
	sessions int
	mem      runtime.MemStats
	cpu      time.Duration
}

func readCounters(t *top) counters {
	c := counters{
		stages:   make(map[string]metrics.StageSnapshot),
		wal:      t.db.WALStats(),
		mvcc:     t.db.MVCCStats(),
		pagepool: t.db.PagePoolStats(),
		spill:    t.db.SpillStats(),
		shares:   t.db.ScanShares(),
	}
	for _, s := range t.db.Stages() {
		c.stages[s.Name] = s
	}
	if t.srv != nil {
		c.adm = t.srv.AdmissionStats()
		c.sessions = t.srv.SessionCount()
	}
	runtime.ReadMemStats(&c.mem)
	c.cpu = processCPU()
	return c
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// window is the outcome of one measured window.
type window struct {
	clients       []*clientState
	before, after counters
}

// totals sums the clients' op counts.
func (w *window) totals() (attempted, failed, retried int64) {
	for _, c := range w.clients {
		attempted += c.attempted
		failed += c.failed
		retried += c.retried
	}
	return attempted, failed, retried
}

func (w *window) succeeded() int64 {
	attempted, failed, _ := w.totals()
	return attempted - failed
}

// throughput sums each client's own rate: a closed-loop client that finishes
// its last op after the deadline is divided by its own elapsed time, so a
// slow final op neither inflates nor deflates the rate.
func (w *window) throughput() float64 {
	var t float64
	for _, c := range w.clients {
		if c.elapsed > 0 {
			t += float64(c.attempted-c.failed) / c.elapsed.Seconds()
		}
	}
	return t
}

// latencies pools the clients' samples of the given kinds.
func (w *window) latencies(kinds ...string) []time.Duration {
	var out []time.Duration
	for _, c := range w.clients {
		for _, k := range kinds {
			out = append(out, c.lat[k]...)
		}
	}
	return out
}

func (w *window) firstRows() []time.Duration {
	var out []time.Duration
	for _, c := range w.clients {
		out = append(out, c.firstRow...)
	}
	return out
}

func (w *window) firstErr() error {
	for _, c := range w.clients {
		if c.firstErr != nil {
			return fmt.Errorf("client %d: %w", c.id, c.firstErr)
		}
	}
	return nil
}

// runWindow warms the system up, then measures it for d with every counter
// read on both sides of the window.
func runWindow(ctx context.Context, t *top, cs []*clientState, warm, d time.Duration) *window {
	phase(ctx, cs, warm, false)
	w := &window{clients: cs, before: readCounters(t)}
	phase(ctx, cs, d, true)
	w.after = readCounters(t)
	return w
}
