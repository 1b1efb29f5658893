package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stagedb"
	"stagedb/internal/wire"
)

// session is one client connection: a reader goroutine that owns all reads
// (frame dispatch, cancel delivery, disconnect detection) and a worker
// goroutine that owns all writes and runs queries one at a time. The split
// keeps Cancel frames and disconnects observable while a query streams.
type session struct {
	srv      *Server
	conn     net.Conn
	in       *bufio.Reader // every read of conn, the handshake's included
	ctx      context.Context
	cancel   context.CancelFunc
	tenant   string
	admitted bool // holds a connection-quota slot that teardown must return
	dbc      *stagedb.Conn

	busy    atomic.Bool
	cancelQ atomic.Value // context.CancelFunc of the in-flight query

	// out accumulates response frames until flush sends them with one
	// conn.Write; qctx is the in-flight query's context. Both belong to the
	// worker.
	out  []byte
	qctx context.Context

	// wmu orders the worker's write deadlines against cancelInflight's poke,
	// so that the poke lands on the write it is meant for or on none.
	wmu    sync.Mutex
	parked bool // the worker is inside a conn.Write that a Cancel should interrupt
}

// outBufMax bounds the bytes a session buffers before writing: a response
// that would grow past it goes out in several writes. Only a single frame
// larger than this (one page of very wide rows) is ever buffered beyond it.
const outBufMax = 64 << 10

// run is the session worker: handshake, then the query loop. It owns every
// write on the connection.
func (s *session) run() {
	defer func() {
		// An abandoned transaction must not keep its table locks past the
		// connection: roll it back before the session disappears. Abort
		// bypasses the stage queues — the execute stage may be wedged on
		// exactly the locks this rollback releases.
		if s.dbc != nil {
			s.dbc.Abort()
		}
		s.cancel()
		s.conn.Close()
		if s.admitted {
			s.srv.adm.releaseConn(s.tenant)
		}
		s.srv.removeSession(s)
		s.srv.wg.Done()
	}()

	// One buffer serves every read, so a frame costs one read syscall, not
	// one for its header and one for its payload. The handshake uses it
	// first, so bytes a client sent right after Hello stay buffered for the
	// reader goroutine, its only user after that.
	s.in = bufio.NewReader(s.conn)
	if !s.handshake() {
		return
	}
	s.dbc = s.srv.db.Conn()

	frames := make(chan wire.Query, 1)
	s.srv.wg.Add(1)
	go s.reader(frames)

	for {
		select {
		case <-s.ctx.Done():
			return
		case q, ok := <-frames:
			if !ok {
				return
			}
			s.busy.Store(true)
			s.runQuery(q)
			s.busy.Store(false)
			if s.srv.draining() {
				// The in-flight query this session was granted under drain
				// has finished; the session ends with it.
				return
			}
		}
	}
}

// handshake reads Hello under the handshake deadline, checks the protocol
// version and the tenant's connection quota, and answers HelloOK (or a
// refusing Done). It reports whether the session may proceed.
func (s *session) handshake() bool {
	s.conn.SetDeadline(time.Now().Add(s.srv.opts.HandshakeTimeout))
	typ, payload, err := wire.ReadFrame(s.in)
	if err != nil || typ != wire.MsgHello {
		return false
	}
	h, err := wire.ParseHello(payload)
	if err != nil {
		return false
	}
	if h.Proto != wire.Proto {
		s.writeDoneErr(wire.ErrCodeProto, "unsupported protocol version")
		return false
	}
	if s.srv.draining() {
		s.writeDoneErr(wire.ErrCodeDraining, stagedb.ErrDraining.Error())
		return false
	}
	if err := s.srv.adm.admitConn(h.Tenant); err != nil {
		s.writeDoneErr(codeFor(err), err.Error())
		return false
	}
	s.tenant, s.admitted = h.Tenant, true
	s.conn.SetDeadline(time.Time{}) // steady state: reads park, writes set their own deadline
	start := s.beginFrame(wire.MsgHelloOK)
	s.out = wire.AppendHelloOK(s.out, wire.Proto)
	return s.endFrame(start) == nil && s.flush(len(s.out)) == nil
}

// reader owns all reads after the handshake. Query frames flow to the
// worker; Cancel fails the in-flight query in place; Quit (or any read
// error — the disconnect path) ends the session.
func (s *session) reader(frames chan<- wire.Query) {
	defer s.srv.wg.Done()
	defer close(frames)
	for {
		typ, payload, err := wire.ReadFrame(s.in)
		if err != nil {
			// Disconnect (or hard-stop poke): fail whatever is in flight so
			// the pipeline stops producing pages nobody will read.
			select {
			case <-s.ctx.Done():
			default:
				s.srv.adm.counters.Inc("disconnects")
			}
			s.cancelInflight()
			s.cancel()
			return
		}
		switch typ {
		case wire.MsgQuery:
			q, err := wire.ParseQuery(payload)
			if err != nil {
				s.cancelInflight()
				s.cancel()
				return
			}
			select {
			case frames <- q:
			case <-s.ctx.Done():
				return
			}
		case wire.MsgCancel:
			s.cancelInflight()
		case wire.MsgQuit:
			return
		default:
			// Unknown frame: protocol violation, drop the session.
			s.cancelInflight()
			s.cancel()
			return
		}
	}
}

// cancelInflight fails the running query (if any) and pokes the write
// deadline so a worker parked in conn.Write on a full socket unblocks and
// observes the cancellation.
func (s *session) cancelInflight() {
	if cf, ok := s.cancelQ.Load().(context.CancelFunc); ok && cf != nil {
		cf()
		s.wmu.Lock()
		if s.parked {
			s.conn.SetWriteDeadline(time.Now())
		}
		s.wmu.Unlock()
	}
}

// runQuery carries one query from admission to its terminal Done frame.
// A panic anywhere in the query path is confined to this query: the
// deferred recover answers with ErrCodePanic and the session lives on.
func (s *session) runQuery(q wire.Query) {
	defer func() {
		s.cancelQ.Store(context.CancelFunc(nil))
		if r := recover(); r != nil {
			s.srv.adm.counters.Inc("panics")
			s.out = s.out[:0] // may end in a half-encoded frame
			s.writeDoneErr(wire.ErrCodePanic, "stagedb: query panicked (session preserved)")
		}
		s.qctx = nil
	}()

	_, execQueue := s.srv.db.EngineLoad()
	if err := s.srv.adm.admitQuery(s.tenant, s.srv.draining(), execQueue); err != nil {
		s.writeDoneErr(codeFor(err), err.Error())
		return
	}
	defer s.srv.adm.releaseQuery(s.tenant)

	qctx, qcancel := s.queryContext(q)
	defer qcancel()
	s.qctx = qctx
	s.cancelQ.Store(qcancel)

	if hook := s.srv.testHookExec; hook != nil {
		hook(q.SQL)
	}

	args := make([]any, len(q.Args))
	for i, v := range q.Args {
		args[i] = v
	}

	if q.Flags&wire.FlagQueryOnly != 0 {
		s.streamQuery(qctx, q.SQL, args)
		return
	}
	res, err := s.dbc.ExecContext(qctx, q.SQL, args...)
	if err != nil {
		s.writeDoneErr(codeFor(err), err.Error())
		return
	}
	// A SELECT through ExecContext arrives materialized; cut it into Page
	// frames of framePageRows rows, the frames a stream sends. The
	// frames only accumulate here: a small result leaves with its Done in
	// one write, a large one in outBufMax pieces. A Cancel that lands while
	// the pieces go out ends the response at the next page: the poke only
	// reaches a write parked at the moment it arrives, so a write that had
	// already completed would otherwise leave every later one to run.
	if len(res.Columns) > 0 {
		if err := s.putColumns(res.Columns); err != nil {
			s.failWrite()
			return
		}
		for off := 0; off < len(res.Rows); off += framePageRows {
			if s.canceled() {
				s.writeDoneErr(s.canceledDone())
				return
			}
			end := min(off+framePageRows, len(res.Rows))
			if err := s.putPage(res.Rows[off:end]); err != nil {
				s.failWrite()
				return
			}
		}
	}
	s.finish(res.Affected)
}

// framePageRows bounds the rows of one Page frame, however many the
// exchange page it comes from holds: wire.MaxFrame is sized for it.
const framePageRows = 64

// streamQuery is the SELECT fast path: each pooled exchange page goes out as
// Page frames of at most framePageRows rows in one write, as soon as it is
// encoded (Columns rides with the first), and pages are pulled from the
// pipeline only as fast as the client accepts them. The bounded root
// exchange turns a stalled write into parked execute-stage producers —
// backpressure, not buffering.
func (s *session) streamQuery(qctx context.Context, sqlText string, args []any) {
	rows, err := s.dbc.QueryContext(qctx, sqlText, args...)
	if err != nil {
		s.writeDoneErr(codeFor(err), err.Error())
		return
	}
	// Slow or gone client: abandon the pipeline (recycles every outstanding
	// page, like an early Rows.Close) and the session.
	abandon := func() {
		rows.Close()
		s.failWrite()
	}
	if err := s.putColumns(rows.Columns()); err != nil {
		abandon()
		return
	}
	for {
		batch, err := rows.NextBatch()
		if err != nil {
			rows.Close()
			s.writeDoneErr(codeFor(err), err.Error())
			return
		}
		if batch == nil {
			break
		}
		for len(batch) > 0 && err == nil {
			n := min(len(batch), framePageRows)
			err = s.putPage(batch[:n])
			batch = batch[n:]
		}
		if err == nil {
			err = s.flush(len(s.out))
		}
		if err != nil {
			abandon()
			return
		}
	}
	if err := rows.Close(); err != nil {
		s.writeDoneErr(codeFor(err), err.Error())
		return
	}
	s.finish(0)
}

// queryContext derives the query's context from the session's: the client
// deadline (DeadlineMs) and the server's QueryTimeout cap both apply; the
// shorter wins.
func (s *session) queryContext(q wire.Query) (context.Context, context.CancelFunc) {
	timeout := time.Duration(0)
	if q.DeadlineMs > 0 {
		timeout = time.Duration(q.DeadlineMs) * time.Millisecond
	}
	if qt := s.srv.opts.QueryTimeout; qt > 0 && (timeout == 0 || qt < timeout) {
		timeout = qt
	}
	if timeout > 0 {
		return context.WithTimeout(s.ctx, timeout)
	}
	return context.WithCancel(s.ctx)
}

// failWrite handles a response write failure. Two causes look alike — the
// write deadline fired — but mean opposite things: a Cancel frame pokes the
// deadline to interrupt a parked write (the session must live on and answer
// Done(canceled)), while a client that is slow past WriteTimeout or gone is
// dead weight (cancel its query, end the session). Either way a session
// whose terminal frame cannot be written must not go on to read the next
// query over a half-written stream.
func (s *session) failWrite() {
	if s.ctx.Err() != nil {
		return // flush already gave the session up: the stream is cut mid-frame
	}
	if s.canceled() {
		// Interrupted by cancellation (or deadline), not a dead client:
		// answer the terminal Done, which no poke can reach any more.
		code, msg := s.canceledDone()
		if s.sendDone(wire.Done{Code: code, Msg: msg}) == nil {
			return
		}
	} else {
		s.srv.adm.counters.Inc("slow_client_aborts")
	}
	s.cancel()
}

// canceledDone is the terminal Done of a query whose context ended:
// canceled, or timed out.
func (s *session) canceledDone() (wire.ErrCode, string) {
	if code := codeFor(s.qctx.Err()); code == wire.ErrCodeTimeout {
		return code, stagedb.ErrTimeout.Error()
	}
	return wire.ErrCodeCanceled, stagedb.ErrCanceled.Error()
}

// beginFrame starts a frame of type typ in the output buffer and returns
// its offset for endFrame.
func (s *session) beginFrame(typ byte) int {
	start := len(s.out)
	s.out = wire.BeginFrame(s.out, typ)
	return start
}

// endFrame completes the frame begun at start. When that frame took the
// buffer past outBufMax the frames before it are written first, so a large
// materialized result leaves in bounded pieces.
func (s *session) endFrame(start int) error {
	if err := wire.EndFrame(s.out, start); err != nil {
		s.out = s.out[:start]
		return err
	}
	if len(s.out) > outBufMax && start > 0 {
		return s.flush(start)
	}
	return nil
}

func (s *session) putColumns(names []string) error {
	start := s.beginFrame(wire.MsgColumns)
	s.out = wire.AppendColumns(s.out, names)
	return s.endFrame(start)
}

func (s *session) putPage(rows []stagedb.Row) error {
	start := s.beginFrame(wire.MsgPage)
	s.out = wire.AppendPage(s.out, rows)
	return s.endFrame(start)
}

// sendDone appends the terminal Done to whatever result frames are still
// buffered and flushes the response.
func (s *session) sendDone(d wire.Done) error {
	start := s.beginFrame(wire.MsgDone)
	s.out = d.Append(s.out)
	if err := s.endFrame(start); err != nil {
		return err
	}
	return s.flush(len(s.out))
}

// flush writes the first upto bytes of the output buffer — whole frames —
// with one conn.Write and keeps the rest for the next flush. On failure the
// whole buffer is dropped; under a canceled query of a live session, where
// the client is expected to be waiting for Done(canceled|timeout), a frame
// the write cut in two is completed first so that the stream still parses.
func (s *session) flush(upto int) error {
	n, err := s.write(s.out[:upto])
	if err != nil && s.canceled() && s.ctx.Err() == nil {
		if end := wire.FrameEnd(s.out, n); end > n {
			if _, cerr := s.write(s.out[n:end]); cerr != nil {
				s.cancel() // cut mid-frame for good: nothing more can be said on this stream
			} else if end == upto {
				err = nil // only the tail of the last frame was outstanding
			}
		}
	}
	if err != nil {
		upto = len(s.out)
	}
	s.out = s.out[:copy(s.out, s.out[upto:])]
	return err
}

// write is one conn.Write under a fresh WriteTimeout deadline. A write begun
// before the query was canceled carries results nobody may want any more:
// cancelInflight pokes its deadline into the past, so it returns a timeout
// error at once even when parked on a full socket. A write begun after —
// the Done(canceled) answer — is left alone.
func (s *session) write(p []byte) (int, error) {
	s.wmu.Lock()
	s.conn.SetWriteDeadline(time.Now().Add(s.srv.opts.WriteTimeout))
	s.parked = !s.canceled()
	s.wmu.Unlock()
	n, err := s.conn.Write(p)
	s.wmu.Lock()
	s.parked = false
	s.wmu.Unlock()
	return n, err
}

// canceled reports whether a query is in flight and its context has ended.
func (s *session) canceled() bool { return s.qctx != nil && s.qctx.Err() != nil }

// finish ends a successful query.
func (s *session) finish(affected int64) {
	if err := s.sendDone(wire.Done{Affected: affected}); err != nil {
		s.failWrite()
	}
}

// writeDoneErr answers a query (or a refused handshake) with a failing Done
// frame.
func (s *session) writeDoneErr(code wire.ErrCode, msg string) {
	if err := s.sendDone(wire.Done{Code: code, Msg: msg}); err != nil {
		s.failWrite()
	}
}

// codeFor maps the public error taxonomy onto wire codes; anything outside
// the taxonomy (syntax, schema, execution errors) is generic.
func codeFor(err error) wire.ErrCode {
	switch {
	case errors.Is(err, stagedb.ErrTimeout):
		return wire.ErrCodeTimeout
	case errors.Is(err, stagedb.ErrCanceled):
		return wire.ErrCodeCanceled
	case errors.Is(err, stagedb.ErrAdmissionDenied):
		return wire.ErrCodeAdmission
	case errors.Is(err, stagedb.ErrDraining):
		return wire.ErrCodeDraining
	case errors.Is(err, stagedb.ErrSerializationFailure):
		return wire.ErrCodeSerialization
	case errors.Is(err, context.DeadlineExceeded):
		return wire.ErrCodeTimeout
	case errors.Is(err, context.Canceled):
		return wire.ErrCodeCanceled
	}
	return wire.ErrCodeGeneric
}
