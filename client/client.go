// Package client is the Go client for stagedbd's wire protocol. It mirrors
// the embedded stagedb API — ExecContext, QueryContext with a streaming
// Rows cursor — over a TCP connection, one query in flight per Conn.
//
//	c, err := client.Dial(ctx, "127.0.0.1:7878", client.Options{Tenant: "acme"})
//	if err != nil { ... }
//	defer c.Close()
//	rows, err := c.QueryContext(ctx, "SELECT id, name FROM t WHERE id > ?", 10)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() { r := rows.Row(); ... }
//
// Result pages arrive one wire frame per server-side exchange page; a
// client that stops reading stops the server's pipeline through TCP
// backpressure rather than growing a buffer anywhere. Server rejections
// surface as the stagedb error taxonomy: errors.Is(err,
// stagedb.ErrAdmissionDenied) (retryable), stagedb.ErrDraining,
// stagedb.ErrTimeout, stagedb.ErrCanceled all work across the wire.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"stagedb"
	"stagedb/internal/value"
	"stagedb/internal/wire"
)

// Options configures Dial.
type Options struct {
	// Tenant names the admission-quota bucket this connection belongs to
	// ("" is the anonymous tenant).
	Tenant string
	// DialTimeout bounds the TCP connect + handshake (0 = 10s); a sooner
	// ctx deadline wins.
	DialTimeout time.Duration
}

// Conn is one client connection: a session on the server with its own
// engine session (transactions span queries). One query may be in flight at
// a time; Conn is not safe for concurrent use.
type Conn struct {
	nc  net.Conn
	br  *bufio.Reader
	buf []byte // query frame scratch

	inQuery bool // a streaming Rows is open
	broken  bool // protocol desync or I/O error: the conn is unusable
}

// Dial connects, performs the Hello handshake, and returns a ready Conn.
// An admission rejection (the tenant's connection quota) surfaces as
// stagedb.ErrAdmissionDenied.
func Dial(ctx context.Context, addr string, opts Options) (*Conn, error) {
	d := net.Dialer{Timeout: opts.dialTimeout()}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return NewConn(ctx, nc, opts)
}

func (o Options) dialTimeout() time.Duration {
	if o.DialTimeout == 0 {
		return 10 * time.Second
	}
	return o.DialTimeout
}

// NewConn performs the Hello handshake over an established transport — the
// second half of Dial, and the seam through which tests put their own
// net.Conn under a client. It owns nc from the call on: a failed handshake
// closes it.
func NewConn(ctx context.Context, nc net.Conn, opts Options) (*Conn, error) {
	c := &Conn{nc: nc, br: bufio.NewReader(nc)}
	deadline := time.Now().Add(opts.dialTimeout())
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	nc.SetDeadline(deadline)
	if err := wire.WriteFrame(nc, wire.MsgHello, wire.Hello{Proto: wire.Proto, Tenant: opts.Tenant}.Append(nil)); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	typ, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	switch typ {
	case wire.MsgHelloOK:
		if _, err := wire.ParseHelloOK(payload); err != nil {
			nc.Close()
			return nil, err
		}
	case wire.MsgDone:
		d, perr := wire.ParseDone(payload)
		nc.Close()
		if perr != nil {
			return nil, perr
		}
		return nil, errFor(d)
	default:
		nc.Close()
		return nil, fmt.Errorf("client: unexpected handshake frame %#x", typ)
	}
	nc.SetDeadline(time.Time{})
	return c, nil
}

// Close sends Quit and closes the connection. A streaming query still open
// is canceled first.
func (c *Conn) Close() error {
	if c.nc == nil {
		return nil
	}
	if !c.broken {
		if c.inQuery {
			wire.WriteFrame(c.nc, wire.MsgCancel, nil)
		}
		c.nc.SetWriteDeadline(time.Now().Add(time.Second))
		wire.WriteFrame(c.nc, wire.MsgQuit, nil)
	}
	err := c.nc.Close()
	c.nc = nil
	return err
}

// ExecContext runs one statement and materializes the outcome. SELECTs
// return their rows; DML returns the affected count. The ctx deadline
// travels to the server as the query's deadline.
func (c *Conn) ExecContext(ctx context.Context, sqlText string, args ...any) (*stagedb.Result, error) {
	if err := c.startQuery(ctx, sqlText, args, 0); err != nil {
		return nil, err
	}
	res := &stagedb.Result{}
	for {
		typ, payload, err := c.readFrame(ctx)
		if err != nil {
			return nil, err
		}
		switch typ {
		case wire.MsgColumns:
			if res.Columns, err = wire.ParseColumns(payload); err != nil {
				return nil, c.fail(err)
			}
		case wire.MsgPage:
			rows, err := wire.ParsePage(payload)
			if err != nil {
				return nil, c.fail(err)
			}
			res.Rows = append(res.Rows, rows...)
		case wire.MsgDone:
			d, err := wire.ParseDone(payload)
			if err != nil {
				return nil, c.fail(err)
			}
			if err := errFor(d); err != nil {
				return nil, err
			}
			res.Affected = d.Affected
			return res, nil
		default:
			return nil, c.fail(fmt.Errorf("client: unexpected frame %#x", typ))
		}
	}
}

// QueryContext runs a SELECT, streaming the result one server page per
// frame through the returned Rows. Non-SELECT statements are rejected by
// the server. The caller must Close the Rows; an early Close cancels the
// rest of the query but keeps the connection usable.
func (c *Conn) QueryContext(ctx context.Context, sqlText string, args ...any) (*Rows, error) {
	if err := c.startQuery(ctx, sqlText, args, wire.FlagQueryOnly); err != nil {
		return nil, err
	}
	c.inQuery = true
	r := &Rows{c: c, ctx: ctx}
	// First frame decides: Columns opens the stream, Done carries the error.
	typ, payload, err := c.readFrame(ctx)
	if err != nil {
		c.inQuery = false
		return nil, err
	}
	switch typ {
	case wire.MsgColumns:
		if r.cols, err = wire.ParseColumns(payload); err != nil {
			c.inQuery = false
			return nil, c.fail(err)
		}
		return r, nil
	case wire.MsgDone:
		c.inQuery = false
		d, perr := wire.ParseDone(payload)
		if perr != nil {
			return nil, c.fail(perr)
		}
		if err := errFor(d); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("client: server sent Done without Columns for a query")
	default:
		c.inQuery = false
		return nil, c.fail(fmt.Errorf("client: unexpected frame %#x", typ))
	}
}

// startQuery validates conn state and writes the Query frame, deriving the
// wire deadline from ctx.
func (c *Conn) startQuery(ctx context.Context, sqlText string, args []any, flags uint8) error {
	if c.nc == nil || c.broken {
		return fmt.Errorf("client: connection is closed")
	}
	if c.inQuery {
		return fmt.Errorf("client: a streaming query is already in flight; Close its Rows first")
	}
	vals, err := bindArgs(args)
	if err != nil {
		return err
	}
	q := wire.Query{Flags: flags, SQL: sqlText, Args: vals}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms <= 0 {
			return stagedb.Tag(stagedb.ErrTimeout, context.DeadlineExceeded)
		}
		q.DeadlineMs = uint64(ms)
	}
	c.buf = q.Append(wire.BeginFrame(c.buf[:0], wire.MsgQuery))
	if err := wire.EndFrame(c.buf, 0); err != nil {
		return err
	}
	c.nc.SetWriteDeadline(time.Now().Add(30 * time.Second))
	if _, err := c.nc.Write(c.buf); err != nil {
		return c.fail(err)
	}
	return nil
}

// readFrame reads the next frame, honoring the ctx deadline as a read
// deadline so a dead server cannot park the client forever.
func (c *Conn) readFrame(ctx context.Context) (byte, []byte, error) {
	if dl, ok := ctx.Deadline(); ok {
		// Grace past the server-enforced deadline: the server answers an
		// expired query with a Done(timeout) frame we want to receive.
		c.nc.SetReadDeadline(dl.Add(2 * time.Second))
	} else {
		c.nc.SetReadDeadline(time.Time{})
	}
	typ, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		return 0, nil, c.fail(fmt.Errorf("client: read: %w", err))
	}
	return typ, payload, nil
}

// fail marks the connection unusable (desync or transport error).
func (c *Conn) fail(err error) error {
	c.broken = true
	return err
}

// Rows streams a QueryContext result: one server exchange page per frame,
// fetched as Next consumes the previous batch.
type Rows struct {
	c    *Conn
	ctx  context.Context
	cols []string

	batch []stagedb.Row
	i     int
	row   stagedb.Row
	err   error
	done  bool
	aff   int64
}

// Columns names the result columns.
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row, reading the next page frame when the
// current batch is consumed. False means end-of-set or error — check Err.
func (r *Rows) Next() bool {
	for {
		if r.err != nil || r.done {
			return false
		}
		if r.i < len(r.batch) {
			r.row = r.batch[r.i]
			r.i++
			return true
		}
		typ, payload, err := r.c.readFrame(r.ctx)
		if err != nil {
			r.finish(err)
			return false
		}
		switch typ {
		case wire.MsgPage:
			rows, err := wire.ParsePage(payload)
			if err != nil {
				r.finish(r.c.fail(err))
				return false
			}
			r.batch, r.i = rows, 0
		case wire.MsgDone:
			d, perr := wire.ParseDone(payload)
			if perr != nil {
				r.finish(r.c.fail(perr))
				return false
			}
			r.aff = d.Affected
			r.finish(errFor(d))
			return false
		default:
			r.finish(r.c.fail(fmt.Errorf("client: unexpected frame %#x", typ)))
			return false
		}
	}
}

// Row returns the current row. Valid after a true Next.
func (r *Rows) Row() stagedb.Row { return r.row }

// Err returns the first error encountered while streaming; the stagedb
// taxonomy sentinels match across the wire.
func (r *Rows) Err() error { return r.err }

// finish ends the stream and releases the connection for the next query.
func (r *Rows) finish(err error) {
	r.done = true
	r.row = nil
	if err != nil && r.err == nil {
		r.err = err
	}
	r.c.inQuery = false
}

// Close ends the query. A partially read result sends Cancel and drains the
// stream to its Done frame, keeping the connection reusable. Idempotent;
// returns the first streaming error.
func (r *Rows) Close() error {
	if r.done {
		return r.err
	}
	if r.c.nc == nil || r.c.broken {
		r.finish(fmt.Errorf("client: connection is closed"))
		return r.err
	}
	// Ask the server to stop, then drain to Done so the next query on this
	// conn starts frame-aligned.
	r.c.nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFrame(r.c.nc, wire.MsgCancel, nil); err != nil {
		r.finish(r.c.fail(err))
		return r.err
	}
	for !r.done {
		typ, payload, err := r.c.readFrame(r.ctx)
		if err != nil {
			r.finish(err)
			break
		}
		switch typ {
		case wire.MsgPage: // discard
		case wire.MsgDone:
			d, perr := wire.ParseDone(payload)
			if perr != nil {
				r.finish(r.c.fail(perr))
				break
			}
			// A cancel-induced failure is the expected outcome of an early
			// Close, not an error the caller should see.
			if e := errFor(d); e != nil && !errors.Is(e, stagedb.ErrCanceled) {
				r.finish(e)
			} else {
				r.finish(nil)
			}
		default:
			r.finish(r.c.fail(fmt.Errorf("client: unexpected frame %#x", typ)))
		}
	}
	return r.err
}

// errFor maps a Done frame's code back onto the stagedb error taxonomy.
func errFor(d wire.Done) error {
	if d.Code == wire.ErrCodeOK {
		return nil
	}
	sentinel := map[wire.ErrCode]error{
		wire.ErrCodeTimeout:       stagedb.ErrTimeout,
		wire.ErrCodeCanceled:      stagedb.ErrCanceled,
		wire.ErrCodeAdmission:     stagedb.ErrAdmissionDenied,
		wire.ErrCodeDraining:      stagedb.ErrDraining,
		wire.ErrCodeSerialization: stagedb.ErrSerializationFailure,
	}[d.Code]
	if sentinel == nil {
		return errors.New(d.Msg) // generic, panic, proto: message is the surface
	}
	// Avoid stuttering "stagedb: query timeout: stagedb: query timeout":
	// the server message usually already starts with the sentinel text.
	msg := strings.TrimPrefix(d.Msg, sentinel.Error())
	msg = strings.TrimPrefix(msg, ": ")
	if msg == "" {
		return sentinel
	}
	return stagedb.Tag(sentinel, errors.New(msg))
}

// bindArgs converts Go arguments to wire values.
func bindArgs(args []any) (value.Row, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make(value.Row, len(args))
	for i, a := range args {
		v, err := value.FromGo(a)
		if err != nil {
			return nil, fmt.Errorf("client: argument %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}
