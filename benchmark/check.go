package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"stagedb"
)

// tailOps is the number of ops client 0 issues, alone, between the explicit
// checkpoint and the crash image: a fixed amount of acknowledged work that
// only the log holds, so recovery has redo to do and txn.recover_s times the
// same amount of it on every run.
const tailOps = 200

// durability is the outcome of the crash-image check.
type durability struct {
	RecoverS float64 `json:"recover_s"`
	Redone   int64   `json:"recov_redo"`
	Accts    int     `json:"acct_rows_checked"`
	Hist     int     `json:"hist_rows_checked"`
}

// checkDurability copies the data directory after the last acknowledgement
// without closing the database, reopens the copy (recovery runs) and verifies
// every acknowledged insert and every acknowledged balance delta.
//
// The image must be one a crash could leave. A size-triggered background
// checkpoint may still be flushing pages and rotating the log when the
// clients stop, and a file-by-file copy taken across that rotation is not a
// point-in-time image. So the check first takes an explicit checkpoint (which
// waits out any background one), then has one client acknowledge tailOps more
// ops — too little log to trigger another checkpoint — and only then copies.
// A process kill leaves the operating system's cache intact, and so does
// this copy: it shows that acknowledged writes survive the process, not a
// power loss.
func checkDurability(ctx context.Context, t *top, cs []*clientState, sz sizes, dir string) (*durability, error) {
	if err := t.db.Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	c0 := cs[0]
	for i := 0; i < tailOps; i++ {
		o := c0.stream.next()
		if _, err := c0.do(ctx, o); err != nil {
			return nil, fmt.Errorf("tail %s %v: %w", o.Kind, o.Args, err)
		}
	}
	// The crash image: the data file and the log as they stand, database open.
	image := filepath.Join(dir, "crash-image")
	if err := os.CopyFS(image, os.DirFS(t.opts.DataDir)); err != nil {
		return nil, fmt.Errorf("copy data directory: %w", err)
	}

	opts := t.opts
	opts.DataDir = image
	opts.TempDir = filepath.Join(dir, "crash-spill")
	start := time.Now()
	db, err := stagedb.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("reopen crash image: %w", err)
	}
	defer db.Close()
	out := &durability{RecoverS: time.Since(start).Seconds(), Redone: db.WALStats()["recov_redo"]}
	if out.Redone == 0 {
		return nil, fmt.Errorf("recovery redid nothing: the crash image held no log tail")
	}

	want := make(map[int64]int64)
	hist := make(map[int64]histRow)
	for _, c := range cs {
		for id, d := range c.led.delta {
			want[id] += d
		}
		for _, h := range c.led.hist {
			hist[h.id] = h
		}
	}
	conn := db.Conn()
	rows, err := conn.QueryContext(ctx, "SELECT id, bal FROM acct")
	if err != nil {
		return nil, err
	}
	for rows.Next() {
		r := rows.Row()
		id := r[0].Int()
		if got, w := r[1].Int(), balOf(int(id))+want[id]; got != w {
			rows.Close()
			return nil, fmt.Errorf("after recovery acct %d has bal %d, acknowledged %d", id, got, w)
		}
		out.Accts++
	}
	if err := rows.Close(); err != nil {
		return nil, err
	}
	if out.Accts != sz.Acct {
		return nil, fmt.Errorf("after recovery acct has %d rows, loaded %d", out.Accts, sz.Acct)
	}
	rows, err = conn.QueryContext(ctx, "SELECT id, acct, delta FROM hist")
	if err != nil {
		return nil, err
	}
	for rows.Next() {
		r := rows.Row()
		got := histRow{r[0].Int(), r[1].Int(), r[2].Int()}
		if w, ok := hist[got.id]; !ok || w != got {
			rows.Close()
			return nil, fmt.Errorf("after recovery hist holds %v, acknowledged %v (known=%v)", got, w, ok)
		}
		out.Hist++
	}
	if err := rows.Close(); err != nil {
		return nil, err
	}
	if out.Hist != len(hist) {
		return nil, fmt.Errorf("after recovery hist has %d rows, %d inserts were acknowledged", out.Hist, len(hist))
	}
	return out, nil
}
