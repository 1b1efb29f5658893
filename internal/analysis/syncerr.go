package analysis

// syncerr guards the durability layer's one non-negotiable rule: an error
// from fsync (or a log flush) means bytes the caller believes durable may
// not be, so it must never be dropped. Within the packages that own stable
// storage (internal/txn, internal/storage and its fault injector), any call
// to a method named Sync, SyncDir, or Flush that returns an error must have
// that error consumed — not discarded by an expression statement, a blank
// assignment, defer, or go.
//
// The same goes, in every package, for (*storage.Heap).Scan: it returns
// early when pinning a page fails, so a caller that drops its error takes a
// partial walk for a whole one — an UPDATE that reports fewer rows, an index
// built over part of its table.

import (
	"go/ast"
	"go/types"
)

// syncErrPkgs are the package path suffixes the check applies to — the
// layers that own the data file and the write-ahead log.
var syncErrPkgs = []string{"txn", "storage", "faultfs"}

// SyncErr reports Sync/SyncDir/Flush calls whose error result is discarded
// inside the stable-storage packages, and discarded Heap.Scan errors
// anywhere.
var SyncErr = &Analyzer{
	Name: "syncerr",
	Doc: "check that Sync, SyncDir, and Flush error returns are never discarded in " +
		"internal/txn and internal/storage — a dropped fsync error is a silent durability hole — " +
		"and that no package discards a Heap.Scan error",
	Run: func(pass *Pass) error {
		inScope := false
		for _, sfx := range syncErrPkgs {
			if pathHasSuffix(pass.Pkg.Path(), sfx) {
				inScope = true
				break
			}
		}
		discarded := func(e ast.Expr) {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return
			}
			if isMethodCall(pass.TypesInfo, call, "storage", "Heap", "Scan") {
				pass.Reportf(call.Pos(), "Heap.Scan error discarded — a failed page pin ends the walk early and passes for a complete one; handle it")
			} else if inScope {
				reportDiscardedSync(pass, call)
			}
		}
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch stmt := n.(type) {
				case *ast.ExprStmt:
					discarded(stmt.X)
				case *ast.DeferStmt:
					discarded(stmt.Call)
				case *ast.GoStmt:
					discarded(stmt.Call)
				case *ast.AssignStmt:
					// `_ = f.Sync()` discards just as surely, only louder.
					if len(stmt.Lhs) == 1 && len(stmt.Rhs) == 1 && isBlank(stmt.Lhs[0]) {
						discarded(stmt.Rhs[0])
					}
				}
				return true
			})
		}
		return nil
	},
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// reportDiscardedSync flags call when it is a Sync/SyncDir/Flush method
// call whose sole result is an error.
func reportDiscardedSync(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if name != "Sync" && name != "SyncDir" && name != "Flush" {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return
	}
	if named, ok := sig.Results().At(0).Type().(*types.Named); !ok || named.Obj().Name() != "error" {
		return
	}
	pass.Reportf(call.Pos(), "%s error discarded — a dropped sync/flush error is a durability hole; handle it or record it", name)
}
