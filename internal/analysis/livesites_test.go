package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// liveSite is one row of the production mutation table: a one-site bug
// planted in a real package of the engine that analyzer must report. The
// golden suites under testdata/ prove each analyzer against stubs; this table
// proves it guards a protocol the engine actually runs (mutation adequacy, in
// the sense of DeMillo, Lipton & Sayward, "Hints on Test Data Selection").
type liveSite struct {
	analyzer *Analyzer
	pkg      string // import path of the real package
	file     string // base name of the file mutated
	old, new string // old must occur exactly once in file
}

var liveSites = []liveSite{
	// projectOp's error path releases the output page it checked out.
	{PageRefs, "stagedb/internal/exec", "exec.go",
		"\t\t\t\t\tout.Release()\n\t\t\t\t\tpg.Release()\n\t\t\t\t\treturn nil, err",
		"\t\t\t\t\tpg.Release()\n\t\t\t\t\treturn nil, err"},
	// The hash join's build side copies each row into its arena before
	// the probe page recycles.
	{RowRetain, "stagedb/internal/exec", "join.go",
		"\t\t\tj.buildRows = append(j.buildRows, copyRow(&j.buildArena, row))",
		"\t\t\tj.buildRows = append(j.buildRows, row)"},
	// Rows.materialize clones each row into the Result.
	{RowRetain, "stagedb", "rows.go",
		"res.Rows = append(res.Rows, r.row.Clone())",
		"res.Rows = append(res.Rows, r.row)"},
	// A sort run that fails to append is closed, which removes its file.
	{SpillFiles, "stagedb/internal/exec", "sort.go",
		"\t\tif err := f.Append(s.item(e.idx)); err != nil {\n\t\t\tf.Close()\n\t\t\treturn err",
		"\t\tif err := f.Append(s.item(e.idx)); err != nil {\n\t\t\treturn err"},
	// OpenFileStore closes the data file when it cannot stat it.
	{FsFiles, "stagedb/internal/storage", "filestore.go",
		"\tif err != nil {\n\t\tf.Close()\n\t\treturn nil, fmt.Errorf(\"storage: stat data file: %w\", err)",
		"\tif err != nil {\n\t\treturn nil, fmt.Errorf(\"storage: stat data file: %w\", err)"},
	// Log rotation fails if the new log's fsync fails.
	{SyncErr, "stagedb/internal/txn", "dwal.go",
		"\tif err := nf.Sync(); err != nil {\n\t\treturn fail(err)\n\t}",
		"\tnf.Sync()"},
	// VACUUM's table-lock wait runs under the statement's ctx.
	{CtxFlow, "stagedb/internal/engine", "vacuum.go",
		"db.tm.Locks.Lock(ctx, id, \"table:\"+tbl.Name, txn.Exclusive)",
		"db.tm.Locks.Lock(context.Background(), id, \"table:\"+tbl.Name, txn.Exclusive)"},
	// StagePool.ready pings a stage worker after releasing the stage lock;
	// the fallback for a closed stage unlocks on its own branch only.
	{StageBlock, "stagedb/internal/exec", "pool.go",
		"\t\t\tps.ready = append(ps.ready, t)\n\t\t\tps.arrivedLocked()\n\t\t\tps.mu.Unlock()\n\t\t\tping(ps.wake)",
		"\t\t\tps.ready = append(ps.ready, t)\n\t\t\tps.arrivedLocked()\n\t\t\tps.wake <- struct{}{}\n\t\t\tps.mu.Unlock()"},
	// StagePool.Submit waits for queue space only after releasing the stage
	// lock, which the worker that frees the space needs.
	{StageBlock, "stagedb/internal/exec", "pool.go",
		"\t\tps.mu.Unlock()\n\t\t// Queue full: wait for a worker to take a task, then retry.\n\t\tselect {\n\t\tcase <-ps.space:\n\t\tcase <-p.stopped:\n\t\t\tps = nil\n\t\t}",
		"\t\t// Queue full: wait for a worker to take a task, then retry.\n\t\tselect {\n\t\tcase <-ps.space:\n\t\tcase <-p.stopped:\n\t\t}\n\t\tps.mu.Unlock()"},
	// UPDATE's per-record walk keeps its conflict error out of line.
	{HotAlloc, "stagedb/internal/engine", "dml.go",
		"w.err = errSuperseded(rid, w.tbl.Name, xmax)",
		"w.err = fmt.Errorf(\"engine: row %v of %s superseded by concurrent txn %d: %w\", rid, w.tbl.Name, xmax, mvcc.ErrSerializationFailure)"},
	// The version writer's heap write logs the record from its callback.
	{WalBarrier, "stagedb/internal/engine", "dml.go",
		"rid, err := h.InsertLogged(rec, func(rid storage.RID) (uint64, error) {\n\t\treturn db.tm.LogOp(txn.Record{Txn: id, Kind: txn.RecInsert, Table: tbl.Name, RID: rid, After: rec})",
		"rid, err := h.InsertLogged(rec, func(rid storage.RID) (uint64, error) {\n\t\treturn 0, nil"},
	// supersede stamps xmax through mvcc.
	{VerHdr, "stagedb/internal/engine", "dml.go",
		"dead, err := mvcc.Supersede(oldRec, uint64(id))",
		"dead, err := storage.WithXmax(oldRec, uint64(id))"},
	// INSERT takes its table lock before the checkpoint quiesce lock.
	{LockOrder, "stagedb/internal/engine", "dml.go",
		"\tif err := db.tm.Locks.Lock(ctx, id, \"table:\"+stmt.Table, txn.Exclusive); err != nil {\n\t\treturn nil, err\n\t}\n\tdb.ckptMu.RLock()\n\tdefer db.ckptMu.RUnlock()\n\th, err := db.HeapOf(tbl)\n\tif err != nil {\n\t\treturn nil, err\n\t}\n\t// colIdx",
		"\tdb.ckptMu.RLock()\n\tdefer db.ckptMu.RUnlock()\n\tif err := db.tm.Locks.Lock(ctx, id, \"table:\"+stmt.Table, txn.Exclusive); err != nil {\n\t\treturn nil, err\n\t}\n\th, err := db.HeapOf(tbl)\n\tif err != nil {\n\t\treturn nil, err\n\t}\n\t// colIdx"},
}

// TestAnalyzersGuardLiveSites loads each row's real package, checks its
// analyzer is silent on it, plants the row's mutation in memory (the file
// keeps its name, so positions map back) and requires a diagnostic from the
// analyzer on a mutated line. Every analyzer of the suite needs a row.
func TestAnalyzersGuardLiveSites(t *testing.T) {
	var paths []string
	seen := make(map[string]bool)
	for _, row := range liveSites {
		if !seen[row.pkg] {
			seen[row.pkg] = true
			paths = append(paths, row.pkg)
		}
	}
	listed, err := goList(".", paths)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(listed))
	byPath := make(map[string]*listPkg)
	for _, lp := range listed {
		byPath[lp.ImportPath] = lp
	}

	covered := make(map[*Analyzer]bool)
	for _, row := range liveSites {
		covered[row.analyzer] = true
		t.Run(row.analyzer.Name+"/"+row.file, func(t *testing.T) {
			lp := byPath[row.pkg]
			target := filepath.Join(lp.Dir, row.file)
			data, err := os.ReadFile(target)
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			if n := strings.Count(src, row.old); n != 1 {
				t.Fatalf("%s: old text occurs %d times, want 1", row.file, n)
			}
			if diags := runLive(t, fset, imp, lp, target, src, row.analyzer); len(diags) != 0 {
				t.Fatalf("unmutated %s: %d diagnostics, first %s: %s",
					row.pkg, len(diags), fset.Position(diags[0].Pos), diags[0].Message)
			}

			at := strings.Index(src, row.old)
			first := 1 + strings.Count(src[:at], "\n")
			last := first + strings.Count(row.new, "\n")
			mutated := src[:at] + row.new + src[at+len(row.old):]
			for _, d := range runLive(t, fset, imp, lp, target, mutated, row.analyzer) {
				if pos := fset.Position(d.Pos); pos.Filename == target && pos.Line >= first && pos.Line <= last {
					return
				}
			}
			t.Errorf("%s did not report the mutation at %s:%d-%d", row.analyzer.Name, target, first, last)
		})
	}
	for _, a := range All() {
		if !covered[a] {
			t.Errorf("analyzer %s has no live site", a.Name)
		}
	}
}

// runLive type-checks lp with target's source replaced by src and runs a.
func runLive(t *testing.T, fset *token.FileSet, imp types.Importer, lp *listPkg, target, src string, a *Analyzer) []Diagnostic {
	t.Helper()
	var syntax []*ast.File
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		var text any
		if path == target {
			text = src
		}
		f, err := parser.ParseFile(fset, path, text, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		syntax = append(syntax, f)
	}
	info := newInfo()
	tpkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, syntax, info)
	if err != nil {
		t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
	}
	diags, err := Run(&Package{Path: lp.ImportPath, Fset: fset, Files: syntax, Types: tpkg, Info: info}, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}
