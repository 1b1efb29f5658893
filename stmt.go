package stagedb

import (
	"context"
	"fmt"

	"stagedb/internal/engine"
	"stagedb/internal/sql"
)

// Stmt is a prepared statement: its SQL is parsed — and for SELECT, planned
// — once, cached in the engine's plan cache, and each execution binds its
// `?` arguments into a private copy of the plan and enters the staged
// pipeline directly at the execute stage (the paper's §4.1 shorter
// itinerary for precompiled requests). The parse and optimize stages see a
// prepared statement exactly once, however many times it runs; the cache's
// hit/miss/invalidation/eviction counters appear as the "prepare"
// pseudo-stage in Stages and the CLI \stages view.
//
// A Stmt's SELECT always runs the generic plan, built before its arguments
// were known. An ad-hoc ExecContext or QueryContext with arguments uses the
// same cache but keeps the generic plan only for a point probe (an equality
// on a unique index); its other SELECTs are planned at execute with the
// argument values, so range estimates see the real bounds. Either way a
// point probe runs on the pull (Volcano) driver inside the execute stage
// rather than as an operator pipeline.
//
// DDL and Analyze invalidate cached plans; the next execution re-prepares
// transparently. A Stmt belongs to its Conn and, like the Conn, is not safe
// for concurrent use.
type Stmt struct {
	conn      *Conn
	sqlText   string
	numParams int
	isSelect  bool
	closed    bool
}

// Prepare parses and plans sqlText on the default connection.
func (db *DB) Prepare(ctx context.Context, sqlText string) (*Stmt, error) {
	return db.defConn.Prepare(ctx, sqlText)
}

// Prepare parses and plans sqlText, caching the result keyed by the
// statement text. On the staged engine a cache miss routes through the
// parse and optimize stages; hits skip both. A canceled ctx fails a miss
// with the context's error and caches nothing.
func (c *Conn) Prepare(ctx context.Context, sqlText string) (*Stmt, error) {
	p, err := c.db.front.Prepare(ctx, c.sess, sqlText)
	if err != nil {
		return nil, normalizeErr(err)
	}
	_, isSelect := p.Stmt.(*sql.Select)
	return &Stmt{conn: c, sqlText: sqlText, numParams: p.NumParams, isSelect: isSelect}, nil
}

// NumParams reports the number of `?` placeholders the statement declares.
func (s *Stmt) NumParams() int { return s.numParams }

// QueryContext executes the prepared SELECT with args bound, streaming the
// result as a Rows cursor. The request enters the pipeline at the execute
// stage: no re-parse, no re-plan.
func (s *Stmt) QueryContext(ctx context.Context, args ...any) (*Rows, error) {
	if !s.isSelect {
		return nil, fmt.Errorf("stagedb: QueryContext requires a SELECT statement; use ExecContext")
	}
	req, err := s.request(ctx, args, true)
	if err != nil {
		return nil, err
	}
	if err := s.conn.submitWait(req); err != nil {
		return nil, err
	}
	return &Rows{cur: req.Cursor}, nil
}

// ExecContext executes the prepared statement with args bound. SELECT
// results are materialized through the streaming path.
func (s *Stmt) ExecContext(ctx context.Context, args ...any) (*Result, error) {
	req, err := s.request(ctx, args, s.isSelect)
	if err != nil {
		return nil, err
	}
	if err := s.conn.submitWait(req); err != nil {
		return nil, err
	}
	res := req.Result
	if req.Cursor != nil {
		rows := &Rows{cur: req.Cursor}
		return rows.materialize()
	}
	return &Result{Columns: res.Columns, Rows: res.Rows, Affected: res.Affected}, nil
}

// Close releases the statement handle. The cached plan stays in the
// engine's plan cache for other holders of the same SQL text.
func (s *Stmt) Close() error {
	s.closed = true
	return nil
}

// request builds the prepared request: re-validating the cache entry
// (re-preparing transparently if DDL or Analyze invalidated it), converting
// and substituting arguments, and marking the request to enter at execute.
func (s *Stmt) request(ctx context.Context, args []any, stream bool) (*engine.Request, error) {
	if s.closed {
		return nil, fmt.Errorf("stagedb: statement is closed")
	}
	p, err := s.conn.db.front.Prepare(ctx, s.conn.sess, s.sqlText)
	if err != nil {
		return nil, normalizeErr(err)
	}
	vals, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	if len(vals) != p.NumParams {
		return nil, fmt.Errorf("stagedb: statement wants %d parameter(s), got %d", p.NumParams, len(vals))
	}
	req := &engine.Request{
		Session: s.conn.sess,
		SQL:     s.sqlText,
		Ctx:     ctx,
		Stream:  stream,
		Done:    make(chan struct{}),
	}
	if err := p.Bind(req, vals, true); err != nil {
		return nil, err
	}
	return req, nil
}
