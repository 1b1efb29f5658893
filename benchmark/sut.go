package main

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"stagedb"
	"stagedb/internal/engine"
	"stagedb/internal/server"
	"stagedb/internal/sql"
)

// topOptions maps a workload to the public options its clients run against.
// dir is the run's private directory; spill files and data files stay
// inside it.
func topOptions(workload string, sz sizes, dir string) stagedb.Options {
	o := stagedb.Options{TempDir: filepath.Join(dir, "spill")}
	switch workload {
	case wlOLTPDurable:
		o.DataDir = filepath.Join(dir, "data")
		o.Durability = stagedb.DurabilityGroup
	case wlAnalyticsSpil:
		o.WorkMem = sz.SpillWorkMem
	}
	return o
}

// top is the system the workload's clients drive: an embedded stagedb.DB,
// behind a loopback server for the wire workload.
type top struct {
	workload string
	opts     stagedb.Options
	db       *stagedb.DB
	srv      *server.Server
	served   chan error
}

// openTop opens, loads and analyzes the workload's database — the work
// setup_s times.
func openTop(ctx context.Context, workload string, sz sizes, dir string) (*top, error) {
	opts := topOptions(workload, sz, dir)
	if err := os.MkdirAll(opts.TempDir, 0o755); err != nil {
		return nil, err
	}
	db, err := stagedb.Open(opts)
	if err != nil {
		return nil, err
	}
	t := &top{workload: workload, opts: opts, db: db}
	conn := db.Conn()
	exec := func(ctx context.Context, q string) error {
		_, err := conn.ExecContext(ctx, q)
		return err
	}
	if err := loadWorkload(ctx, workload, sz, exec, db.Analyze); err != nil {
		db.Close()
		return nil, err
	}
	if workload == wlPointReadWire {
		t.srv, err = server.New(ctx, db, server.Options{})
		if err != nil {
			db.Close()
			return nil, err
		}
		t.served = make(chan error, 1)
		go func() { t.served <- t.srv.Serve() }()
	}
	return t, nil
}

func (t *top) close(ctx context.Context) error {
	var first error
	if t.srv != nil {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		first = t.srv.Shutdown(sctx)
		cancel()
		if err := <-t.served; err != nil && first == nil {
			first = err
		}
	}
	if err := t.db.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// kernel is the second copy of the workload's database that the lower
// ladder rungs call into: stagedb.DB keeps its engine private, so the
// engine-and-below rungs build theirs the way stagedb.Open does.
type kernel struct {
	db     *engine.DB
	staged *engine.Staged
	cfg    engine.Config
}

func openKernel(ctx context.Context, workload string, sz sizes, dir string) (*kernel, error) {
	o := topOptions(workload, sz, dir)
	if err := os.MkdirAll(o.TempDir, 0o755); err != nil {
		return nil, err
	}
	cfg := engine.Config{
		WorkMem:         int64(o.WorkMem),
		TempDir:         o.TempDir,
		DataDir:         o.DataDir,
		CheckpointBytes: o.CheckpointBytes,
	}
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, err
		}
	}
	db, err := engine.OpenDB(cfg)
	if err != nil {
		return nil, err
	}
	k := &kernel{db: db, staged: engine.NewStaged(db, engine.StagedConfig{}), cfg: cfg}
	sess := db.NewSession()
	exec := func(ctx context.Context, q string) error {
		stmt, err := sql.Parse(q)
		if err != nil {
			return err
		}
		_, err = sess.RunStmt(ctx, stmt, nil)
		return err
	}
	if err := loadWorkload(ctx, workload, sz, exec, db.Analyze); err != nil {
		k.close()
		return nil, err
	}
	return k, nil
}

func (k *kernel) close() error {
	k.staged.Close()
	return k.db.Close()
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
