package server

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"stagedb"
	"stagedb/client"
	"stagedb/internal/wire"
)

// recConn records every Write made through it — sizes and bytes — and can be
// told to fail the next one, or to run a hook once the next one has been
// fully written.
type recConn struct {
	net.Conn

	mu         sync.Mutex
	sizes      []int
	data       []byte
	failNext   error
	afterWrite func()
}

func (c *recConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if err := c.failNext; err != nil {
		c.failNext = nil
		c.mu.Unlock()
		return 0, err
	}
	c.sizes = append(c.sizes, len(p))
	c.data = append(c.data, p...)
	// The hook belongs to a write that begins after it was set: a write in
	// flight when it is set (its bytes possibly already read) runs none.
	hook := c.afterWrite
	c.afterWrite = nil
	c.mu.Unlock()
	n, err := c.Conn.Write(p)
	if hook != nil {
		hook()
	}
	return n, err
}

// take returns what was written since the last take.
func (c *recConn) take() (sizes []int, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sizes, data = c.sizes, c.data
	c.sizes, c.data = nil, nil
	return sizes, data
}

// pipeSession attaches a session to srv over an in-memory pipe whose two
// ends record their writes. The client end is returned raw: hand it to
// client.NewConn, or speak frames over it directly.
func pipeSession(t *testing.T, srv *Server) (clientEnd, serverEnd *recConn) {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	clientEnd, serverEnd = &recConn{Conn: cEnd}, &recConn{Conn: sEnd}
	srv.startSession(serverEnd)
	t.Cleanup(func() { cEnd.Close() })
	return clientEnd, serverEnd
}

func pipeClient(t *testing.T, srv *Server) (c *client.Conn, clientEnd, serverEnd *recConn) {
	t.Helper()
	clientEnd, serverEnd = pipeSession(t, srv)
	c, err := client.NewConn(context.Background(), clientEnd, client.Options{})
	if err != nil {
		t.Fatalf("handshake over pipe: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	clientEnd.take()
	serverEnd.take()
	return c, clientEnd, serverEnd
}

// loadWireScenario builds the tables the recorded byte streams under
// internal/wire/testdata were produced from (with Options{PageRows: 4}).
func loadWireScenario(t *testing.T, c *client.Conn) {
	t.Helper()
	mustExec(t, c, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	for i := 0; i < 12; i++ {
		mustExec(t, c, "INSERT INTO acct VALUES (?, ?)", i, i*10)
	}
	mustExec(t, c, "CREATE TABLE big (id INT PRIMARY KEY, v INT, pad TEXT)")
	for lo := 0; lo < 10000; lo += 500 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO big VALUES ")
		for i := lo; i < lo+500; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %d, 'pad-%012d')", i, i*7, i)
		}
		mustExec(t, c, sb.String())
	}
}

func wireGolden(t *testing.T, name string) string {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("..", "wire", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(text))
}

// frameTypes lists the types of the whole frames in buf.
func frameTypes(t *testing.T, buf []byte) []byte {
	t.Helper()
	var types []byte
	r := bytes.NewReader(buf)
	for r.Len() > 0 {
		typ, _, err := wire.ReadFrame(r)
		if err != nil {
			t.Fatalf("not whole frames: %v", err)
		}
		types = append(types, typ)
	}
	return types
}

// TestWireWriteCounts pins the flush rule — one write per materialized
// response, Columns with the first Page and then a write per page when
// streaming, never more than outBufMax in one write — and that the bytes on
// the wire are those the two-writes-per-frame server produced.
func TestWireWriteCounts(t *testing.T) {
	srv, _ := startServer(t, stagedb.Options{PageRows: 4}, Options{})
	c, clientEnd, serverEnd := pipeClient(t, srv)
	loadWireScenario(t, c)
	clientEnd.take()
	serverEnd.take()
	ctx := context.Background()

	// Point select through Exec: one write each way.
	res, err := c.ExecContext(ctx, "SELECT bal FROM acct WHERE id = ?", 7)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 70 {
		t.Fatalf("point select: %v, %v", res, err)
	}
	cs, cdata := clientEnd.take()
	ss, sdata := serverEnd.take()
	if len(cs) != 1 || len(ss) != 1 {
		t.Errorf("point select: %d client writes %v, %d server writes %v; want 1 and 1", len(cs), cs, len(ss), ss)
	}
	if got, want := hex.EncodeToString(cdata), wireGolden(t, "point_select.query.hex"); got != want {
		t.Errorf("point select query bytes\n got %s\nwant %s", got, want)
	}
	if got, want := hex.EncodeToString(sdata), wireGolden(t, "point_select.response.hex"); got != want {
		t.Errorf("point select response bytes\n got %s\nwant %s", got, want)
	}

	// Three-page stream: Columns+Page, Page, Page, Done.
	rows, err := c.QueryContext(ctx, "SELECT id, bal FROM acct ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Close(); err != nil || n != 12 {
		t.Fatalf("stream: %d rows, err %v", n, err)
	}
	ss, sdata = serverEnd.take()
	if len(ss) > 4 {
		t.Errorf("3-page stream took %d server writes %v, want <= 4", len(ss), ss)
	}
	if first := frameTypes(t, sdata[:ss[0]]); !bytes.Equal(first, []byte{wire.MsgColumns, wire.MsgPage}) {
		t.Errorf("first stream write carries frames %#x, want Columns+Page", first)
	}
	if got, want := hex.EncodeToString(sdata), wireGolden(t, "stream3.response.hex"); got != want {
		t.Errorf("stream response bytes\n got %s\nwant %s", got, want)
	}

	// 10k-row materialized result: bounded writes, intact rows, same bytes.
	res, err = c.ExecContext(ctx, "SELECT id, v, pad FROM big ORDER BY id")
	if err != nil || len(res.Rows) != 10000 {
		t.Fatalf("big select: %d rows, err %v", len(res.Rows), err)
	}
	for i, r := range res.Rows {
		if r[0].Int() != int64(i) || r[1].Int() != int64(i*7) || r[2].Text() != fmt.Sprintf("pad-%012d", i) {
			t.Fatalf("row %d arrived as %v", i, r)
		}
	}
	ss, sdata = serverEnd.take()
	if len(ss) < 2 {
		t.Errorf("%d-byte response left in %d write(s); the test needs one that exceeds outBufMax", len(sdata), len(ss))
	}
	for i, sz := range ss {
		if sz > outBufMax {
			t.Errorf("server write %d is %d bytes, over the %d bound", i, sz, outBufMax)
		}
	}
	sum := sha256.Sum256(sdata)
	if got, want := fmt.Sprintf("%x %d", sum, len(sdata)), wireGolden(t, "exec10k.response.sha256"); got != want {
		t.Errorf("10k-row response digest\n got %s\nwant %s", got, want)
	}
}

// TestFailedTerminalWriteEndsSession: a session whose terminal Done could
// not be written must not go on to read the next query over a half-written
// stream.
func TestFailedTerminalWriteEndsSession(t *testing.T) {
	srv, _ := startServer(t, stagedb.Options{}, Options{})
	c, _, serverEnd := pipeClient(t, srv)
	mustExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY)")
	base := srv.SessionCount()

	serverEnd.mu.Lock()
	serverEnd.failNext = errors.New("injected write failure")
	serverEnd.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// DML answers with a lone Done frame: the write that fails is terminal.
	if _, err := c.ExecContext(ctx, "INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("exec succeeded although its Done frame was never written")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.SessionCount() != base-1 {
		if time.Now().After(deadline) {
			t.Fatalf("session survived a failed terminal write: %d sessions, want %d", srv.SessionCount(), base-1)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelMidFlushKeepsSession parks the server in the middle of writing a
// large materialized response (the client reads a few bytes and stops), then
// cancels: the write is interrupted inside a frame, the stream must still
// parse to a Done(canceled), and the session serves the next query.
func TestCancelMidFlushKeepsSession(t *testing.T) {
	srv, db := startServer(t, stagedb.Options{}, Options{})
	loader, _, _ := pipeClient(t, srv)
	mustExec(t, loader, "CREATE TABLE t (id INT PRIMARY KEY, pad TEXT)")
	fillPadded(t, loader, "t", 2000, 256)

	nc, _ := pipeSession(t, srv)
	br := bufio.NewReader(nc)
	if err := wire.WriteFrame(nc, wire.MsgHello, wire.Hello{Proto: wire.Proto}.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(br); err != nil || typ != wire.MsgHelloOK {
		t.Fatalf("handshake: typ=%#x err=%v", typ, err)
	}

	q := wire.Query{SQL: "SELECT id, pad FROM t ORDER BY id"}
	if err := wire.WriteFrame(nc, wire.MsgQuery, q.Append(nil)); err != nil {
		t.Fatal(err)
	}
	// The pipe is unbuffered: after these bytes the server is parked inside
	// its first write, partway through the first Page frame.
	head := make([]byte, 100)
	if _, err := io.ReadFull(br, head); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(nc, wire.MsgCancel, nil); err != nil {
		t.Fatalf("send cancel: %v", err)
	}
	// Whatever the interrupted write leaves behind must still be whole
	// frames, ending in the Done.
	frames := io.MultiReader(bytes.NewReader(head), br)
	pages := 0
	var done wire.Done
	for {
		typ, payload, err := wire.ReadFrame(frames)
		if err != nil {
			t.Fatalf("stream unparseable after cancel: %v", err)
		}
		if typ == wire.MsgColumns && pages == 0 {
			continue
		}
		if typ == wire.MsgPage {
			pages++
			continue
		}
		if typ != wire.MsgDone {
			t.Fatalf("unexpected frame %#x", typ)
		}
		if done, err = wire.ParseDone(payload); err != nil {
			t.Fatal(err)
		}
		break
	}
	if done.Code != wire.ErrCodeCanceled {
		t.Fatalf("Done code = %d after %d pages, want canceled", done.Code, pages)
	}
	if pages >= 2000/64 {
		t.Fatalf("all %d pages arrived: the cancel interrupted nothing", pages)
	}

	// Session usable for the next query.
	q = wire.Query{SQL: "SELECT COUNT(*) FROM t"}
	if err := wire.WriteFrame(nc, wire.MsgQuery, q.Append(nil)); err != nil {
		t.Fatal(err)
	}
	var types []byte
	for len(types) == 0 || types[len(types)-1] != wire.MsgDone {
		typ, _, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("next query: %v", err)
		}
		types = append(types, typ)
	}
	if !bytes.Equal(types, []byte{wire.MsgColumns, wire.MsgPage, wire.MsgDone}) {
		t.Fatalf("next query answered with frames %#x", types)
	}
	assertNoLeaks(t, db)
}

// TestCancelAfterCompletedWriteStopsResponse delivers the Cancel at the one
// moment no poke can reach: a write of a large materialized response has
// just completed and the next has not begun. The response must still end at
// the next page with Done(canceled) rather than run to Done(ok), and the
// session serves the next query.
func TestCancelAfterCompletedWriteStopsResponse(t *testing.T) {
	srv, db := startServer(t, stagedb.Options{}, Options{})
	c, _, serverEnd := pipeClient(t, srv)
	mustExec(t, c, "CREATE TABLE t (id INT PRIMARY KEY, pad TEXT)")
	fillPadded(t, c, "t", 2000, 256)

	var sess *session
	srv.mu.Lock()
	for s := range srv.sessions {
		if s.conn == serverEnd {
			sess = s
		}
	}
	srv.mu.Unlock()
	if sess == nil {
		t.Fatal("no session on the pipe")
	}
	// The hook runs on the session's worker, between two writes of the
	// response — after the first has returned, before the second begins —
	// as the reader's Cancel handling would.
	serverEnd.mu.Lock()
	serverEnd.afterWrite = sess.cancelInflight
	serverEnd.mu.Unlock()

	_, err := c.ExecContext(context.Background(), "SELECT id, pad FROM t ORDER BY id")
	if !errors.Is(err, stagedb.ErrCanceled) {
		t.Fatalf("ExecContext after a Cancel between writes: err = %v, want ErrCanceled", err)
	}
	sizes, _ := serverEnd.take()
	total := 0
	for _, n := range sizes {
		total += n
	}
	if total >= 2000*256 {
		t.Fatalf("%d bytes in %d writes: the whole response went out after the Cancel", total, len(sizes))
	}
	res := mustExec(t, c, "SELECT COUNT(*) FROM t")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2000 {
		t.Fatalf("next query: %v", res.Rows)
	}
	assertNoLeaks(t, db)
}

// TestWireReadsRetainNothing is the retention property seen through the
// server: a session serving auto-commit point reads grows neither the heap
// nor the transaction-status table, and its stage monitors stay exact.
func TestWireReadsRetainNothing(t *testing.T) {
	srv, db := startServer(t, stagedb.Options{}, Options{})
	c := dial(t, srv, "")
	mustExec(t, c, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	var load strings.Builder
	load.WriteString("INSERT INTO acct VALUES ")
	for i := 0; i < 1000; i++ {
		if i > 0 {
			load.WriteByte(',')
		}
		fmt.Fprintf(&load, "(%d, %d)", i, i*10)
	}
	mustExec(t, c, load.String())
	read := func(n int) {
		for i := 0; i < n; i++ {
			res := mustExec(t, c, "SELECT bal FROM acct WHERE id = ?", i%1000)
			if len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(i%1000*10) {
				t.Fatalf("read %d: %v", i, res.Rows)
			}
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	reads := 100_000
	if testing.Short() {
		reads = 20_000
	}
	read(1000)
	base := liveHeap()
	read(reads)
	if grown := liveHeap() - base; grown > 2<<20 {
		t.Errorf("live heap grew %d bytes over %d wire reads (%.0f B/read), want < 2 MB", grown, reads, float64(grown)/float64(reads))
	}
	if n := db.MVCCStats().StatusEntries; n > 4 {
		t.Errorf("%d transaction-status entries after %d wire reads, want only the loader's", n, reads)
	}
	for _, s := range srv.Stages() {
		if s.Serviced > 0 && s.MeanService != s.Busy/time.Duration(s.Serviced) {
			t.Errorf("stage %s: MeanService %v != Busy %v / Serviced %d", s.Name, s.MeanService, s.Busy, s.Serviced)
		}
	}
}

// TestStreamFramesAtMost64Rows: a streamed result whose exchange pages hold
// more than 64 rows still reaches the client as Page frames of at most 64
// rows, with one write per exchange page; a page of 4 KB rows stays far
// below MaxFrame.
func TestStreamFramesAtMost64Rows(t *testing.T) {
	srv, db := startServer(t, stagedb.Options{}, Options{})
	c, _, serverEnd := pipeClient(t, srv)
	mustExec(t, c, "CREATE TABLE nar (id INT PRIMARY KEY, v INT)")
	for lo := 0; lo < 2000; lo += 500 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO nar VALUES ")
		for i := lo; i < lo+500; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, i*3)
		}
		mustExec(t, c, sb.String())
	}
	pad := strings.Repeat("f", 4096)
	mustExec(t, c, "CREATE TABLE fat (id INT PRIMARY KEY, pad TEXT)")
	for i := 0; i < 300; i++ {
		mustExec(t, c, "INSERT INTO fat VALUES (?, ?)", i, pad)
	}
	ctx := context.Background()

	for _, tc := range []struct {
		q    string
		rows int
		// small: an exchange page's frames fit in outBufMax, so each
		// page leaves in one write.
		small bool
	}{
		{"SELECT id, v FROM nar ORDER BY id", 2000, true},
		{"SELECT id, pad FROM fat ORDER BY id", 300, false},
	} {
		// The premise: the engine hands this result over in pages of more
		// than 64 rows.
		er, err := db.QueryContext(ctx, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		pages, largest := 0, 0
		for {
			batch, err := er.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if batch == nil {
				break
			}
			pages++
			largest = max(largest, len(batch))
		}
		er.Close()
		if largest <= framePageRows {
			t.Fatalf("%s: largest exchange page holds %d rows; the test needs more than %d", tc.q, largest, framePageRows)
		}

		serverEnd.take()
		rows, err := c.QueryContext(ctx, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			if id := rows.Row()[0].Int(); id != int64(n) {
				t.Fatalf("%s: row %d has id %d", tc.q, n, id)
			}
			n++
		}
		if err := rows.Close(); err != nil || n != tc.rows {
			t.Fatalf("%s: %d rows, err %v", tc.q, n, err)
		}
		writes, data := serverEnd.take()
		frames, biggest := 0, 0
		for r := bytes.NewReader(data); r.Len() > 0; {
			typ, payload, err := wire.ReadFrame(r)
			if err != nil {
				t.Fatal(err)
			}
			if typ != wire.MsgPage {
				continue
			}
			page, err := wire.ParsePage(payload)
			if err != nil {
				t.Fatal(err)
			}
			if len(page) > framePageRows {
				t.Fatalf("%s: a Page frame carries %d rows, want at most %d", tc.q, len(page), framePageRows)
			}
			frames++
			biggest = max(biggest, len(payload))
		}
		if want := (tc.rows + framePageRows - 1) / framePageRows; frames != want {
			t.Errorf("%s: %d Page frames, want %d", tc.q, frames, want)
		}
		if biggest > wire.MaxFrame/16 {
			t.Errorf("%s: a %d-byte Page frame is not far below MaxFrame (%d)", tc.q, biggest, wire.MaxFrame)
		}
		// One write per exchange page (Columns rides with the first), plus
		// the Done.
		if tc.small && len(writes) != pages+1 {
			t.Errorf("%s: %d exchange pages took %d server writes %v, want %d", tc.q, pages, len(writes), writes, pages+1)
		}
	}
}
