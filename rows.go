package stagedb

import (
	"fmt"

	"stagedb/internal/engine"
	"stagedb/internal/exec"
	"stagedb/internal/value"
)

// Rows is a streaming result cursor: rows arrive page-at-a-time from the
// execute stage's final exchange as the client iterates, so a SELECT of any
// size holds O(page) client memory. Pooled pages stay checked out only until
// their rows are consumed; Close recycles whatever remains and abandons the
// producing pipeline — an early Close behaves exactly like a satisfied
// LIMIT, terminating scans after a prefix.
//
// Rows hands out rows without copying them: a row lives in its exchange
// page's recycled storage, so it is valid only until the page is released
// (see Row and NextBatch). Call Row().Clone() to keep a row longer; Scan
// copies the values out.
//
// The iteration idiom mirrors database/sql:
//
//	rows, err := db.QueryContext(ctx, "SELECT id, name FROM t WHERE id > ?", 10)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		var id int64
//		var name string
//		if err := rows.Scan(&id, &name); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Rows is not safe for concurrent use.
type Rows struct {
	cur    *engine.Cursor
	pg     *exec.Page
	i      int
	row    Row
	err    error
	done   bool
	closed bool
}

// Columns names the result columns.
func (r *Rows) Columns() []string { return r.cur.Columns() }

// Next advances to the next row, fetching the next result page from the
// pipeline when the current one is consumed. It returns false at the end of
// the result set or on error (including context cancellation) — check Err
// afterwards to tell the two apart.
func (r *Rows) Next() bool {
	if r.closed || r.done || r.err != nil {
		return false
	}
	for {
		if r.pg != nil {
			if r.i < r.pg.Len() {
				r.row = r.pg.Row(r.i)
				r.i++
				return true
			}
			// Page consumed: recycle it before pulling the next. Its rows —
			// r.row included — are dead from here on.
			r.pg.Release()
			r.pg = nil
		}
		pg, err := r.cur.NextPage()
		if err != nil {
			r.err = normalizeErr(err)
			r.row = nil // a Scan past the failure must not see stale values
			return false
		}
		if pg == nil {
			r.done = true
			r.row = nil // a Scan past the end must not see the last row
			return false
		}
		r.pg, r.i = pg, 0
	}
}

// Row returns the current row without copying. It is valid after a true
// Next and only until the next call to Next, NextBatch or Close: the row's
// values live in a pooled exchange page that is recycled once consumed. Call
// Row().Clone() to keep it.
func (r *Rows) Row() Row { return r.row }

// Scan copies the current row's values into dest, which must be pointers to
// int, int64, float64, string, bool, Value, or any.
func (r *Rows) Scan(dest ...any) error {
	if r.row == nil {
		return fmt.Errorf("stagedb: Scan called without a successful Next")
	}
	if len(dest) != len(r.row) {
		return fmt.Errorf("stagedb: Scan wants %d destination(s), got %d", len(r.row), len(dest))
	}
	for i, d := range dest {
		if err := scanValue(r.row[i], d); err != nil {
			return fmt.Errorf("stagedb: Scan column %d: %w", i, err)
		}
	}
	return nil
}

// Err returns the first error encountered while streaming (a query failure
// or context cancellation). A nil Err after Next returns false means the
// result set ended normally. Deadline expiry and cancellation surface as the
// stable taxonomy sentinels: errors.Is(err, ErrTimeout) and
// errors.Is(err, ErrCanceled).
func (r *Rows) Err() error { return r.err }

// NextBatch advances to the next result page and returns its live rows —
// the batch granularity of the engine's exchange dataflow, which is also the
// network server's frame unit (one wire frame per pooled exchange page). The
// returned slice and its rows are valid until the next Next, NextBatch or
// Close call, which recycles the page they live in; clone a row to keep it.
// A nil batch with nil error is
// the end of the result set; check Err (or the returned error) otherwise.
// Do not interleave NextBatch with Next: a partially Next-consumed page is
// discarded by the next NextBatch call.
func (r *Rows) NextBatch() ([]Row, error) {
	if r.closed || r.done || r.err != nil {
		return nil, r.err
	}
	r.row = nil
	if r.pg != nil {
		// The previous batch's page: the batch handed out dies with it.
		r.pg.Release()
		r.pg = nil
	}
	pg, err := r.cur.NextPage()
	if err != nil {
		r.err = normalizeErr(err)
		return nil, r.err
	}
	if pg == nil {
		r.done = true
		return nil, nil
	}
	r.pg = pg
	r.i = pg.Len() // interop: a following Next moves to the next page
	if pg.Sel == nil {
		return pg.Rows, nil
	}
	batch := make([]Row, pg.Len())
	for i := range batch {
		batch[i] = pg.Row(i)
	}
	return batch, nil
}

// Close ends the query. A partially read result abandons the producing
// pipeline (operators terminate early, shared-scan consumers detach) and
// every outstanding page returns to the pool; the statement's auto-commit
// transaction finishes, releasing its table locks. Close is idempotent and
// returns the first execution error, if any.
func (r *Rows) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	r.row = nil
	if r.pg != nil {
		r.pg.Release()
		r.pg = nil
	}
	if err := r.cur.Close(); err != nil && r.err == nil {
		r.err = normalizeErr(err)
	}
	return r.err
}

// materialize drains the remaining rows into a Result and closes the cursor
// — the bridge that keeps ExecContext's SELECT results on the one streaming
// delivery path. Each row is cloned: Result.Rows never aliases a
// page.
func (r *Rows) materialize() (*Result, error) {
	res := &Result{Columns: r.Columns()}
	for r.Next() {
		res.Rows = append(res.Rows, r.row.Clone())
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

func scanValue(v Value, dest any) error {
	switch d := dest.(type) {
	case *Value:
		*d = v
		return nil
	case *any:
		*d = valueAny(v)
		return nil
	case *int64:
		if v.Type() != value.Int {
			return fmt.Errorf("cannot scan %s into *int64", v.Type())
		}
		*d = v.Int()
		return nil
	case *int:
		if v.Type() != value.Int {
			return fmt.Errorf("cannot scan %s into *int", v.Type())
		}
		*d = int(v.Int())
		return nil
	case *float64:
		switch v.Type() {
		case value.Float:
			*d = v.Float()
		case value.Int:
			*d = float64(v.Int())
		default:
			return fmt.Errorf("cannot scan %s into *float64", v.Type())
		}
		return nil
	case *string:
		if v.Type() != value.Text {
			return fmt.Errorf("cannot scan %s into *string", v.Type())
		}
		*d = v.Text()
		return nil
	case *bool:
		if v.Type() != value.Bool {
			return fmt.Errorf("cannot scan %s into *bool", v.Type())
		}
		*d = v.Bool()
		return nil
	}
	return fmt.Errorf("unsupported Scan destination %T", dest)
}

func valueAny(v Value) any {
	switch v.Type() {
	case value.Int:
		return v.Int()
	case value.Float:
		return v.Float()
	case value.Text:
		return v.Text()
	case value.Bool:
		return v.Bool()
	}
	return nil
}
