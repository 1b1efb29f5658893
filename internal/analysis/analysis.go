// Package analysis is stagedbvet's analyzer suite: machine-checked versions
// of the resource and staging invariants the engine's earlier PRs established
// by convention, comment, and leak test. Among them:
//
//   - pagerefs: a *exec.Page obtained from PagePool.Get must be Released,
//     forwarded, stored, or returned on every control-flow path, including
//     early-return error paths.
//   - rowretain: a row read from an exchange page (Page.Row, Page.Rows) dies
//     with the page, so internal/exec and stagedb must copy it (Clone, an
//     operator arena) before storing it in a field, a map, a package
//     variable or a returned slice.
//   - spillfiles: every *spill.File from spill.Create must reach
//     Close/Finish, be stored, forwarded, or returned on every path — the
//     temp-file leak shapes the memory-bounded-execution PR fixed by hand.
//   - ctxflow: the context-threaded packages (internal/exec,
//     internal/engine, internal/server, internal/txn, stagedb) must not mint
//     context.Background or context.TODO outside tests.
//   - stageblock: no blocking operation (channel send/receive, select
//     without default, WaitGroup.Wait, time.Sleep) while a
//     sync mutex is held — the deadlock class the stage scheduler's parking
//     protocol exists to prevent.
//   - hotalloc: functions annotated //stagedb:hot (compiled kernels, hash
//     paths) must not call fmt formatters, box values into interfaces, or
//     grow an unsized local slice inside a loop.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, Diagnostic) so analyzers could migrate to the real
// framework if the dependency ever becomes available; the build environment
// here is offline, so the driver (load.go) and the analysistest harness are
// self-contained reimplementations on the standard library.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// stagedbvet:ignore suppressions.
	Name string
	// Doc is the one-paragraph description shown by stagedbvet -list.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information through an
// analyzer's Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package's parsed syntax (non-test files only; the
	// invariants the suite checks are production-code invariants, and test
	// helpers legitimately use context.Background or leak-check pages).
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report receives diagnostics; the driver applies suppressions.
	report func(Diagnostic)
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Report emits a diagnostic at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: msg})
}

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{PageRefs, RowRetain, SpillFiles, FsFiles, SyncErr, CtxFlow, StageBlock, HotAlloc, WalBarrier, VerHdr, LockOrder}
}

// ByName resolves a comma-separated analyzer selection against the suite.
func ByName(names []string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a := byName[n]
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// typeName reports the package path and name of t's core named type,
// dereferencing one level of pointer. It is how analyzers match the engine's
// types without importing the engine (which would make the analyzers
// untestable against stub packages, and internal/analysis a dependency of
// everything it checks).
func typeName(t types.Type) (pkgPath, name string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// isMethodCall reports whether call invokes a method named method on a
// receiver whose named type is typeName declared in a package whose import
// path ends in pkgSuffix (matching both the real module path and the stub
// packages the golden-file tests type-check).
func isMethodCall(info *types.Info, call *ast.CallExpr, pkgSuffix, typName, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	selInfo, ok := info.Selections[sel]
	if !ok {
		return false
	}
	path, name := typeName(selInfo.Recv())
	return name == typName && pathHasSuffix(path, pkgSuffix)
}

// isPkgFuncCall reports whether call invokes the package-level function
// pkgSuffix.funcName (e.g. "context".Background, "spill".Create).
func isPkgFuncCall(info *types.Info, call *ast.CallExpr, pkgSuffix, funcName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != funcName {
		return false
	}
	obj, ok := info.Uses[sel.Sel]
	if !ok {
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return false
	}
	return pathHasSuffix(fn.Pkg().Path(), pkgSuffix)
}

// pathHasSuffix reports whether importPath equals suffix or ends in
// "/"+suffix. Matching by suffix lets the same analyzer recognize
// "stagedb/internal/exec" in the real tree and "exec" or "a/exec" in a
// golden-file stub.
func pathHasSuffix(importPath, suffix string) bool {
	if importPath == suffix {
		return true
	}
	n := len(importPath) - len(suffix)
	return n > 0 && importPath[n-1] == '/' && importPath[n:] == suffix
}
