package analysis

// pagerefs encodes the exchange-page ownership protocol from
// internal/exec/pagepool.go: PagePool.Get hands the caller a page, and every
// page must end in exactly one Release — directly, or by transferring
// ownership (emitting into an exchange, storing in a struct, returning to
// the caller). A page that dies unconsumed is a pool leak that today only
// surfaces when a leak test happens to drive the right early-return path;
// this analyzer fails the build instead.

import (
	"go/ast"
	"go/types"
)

// PageRefs reports *exec.Page references that are acquired but provably not
// released, forwarded, stored, or returned on some control-flow path.
var PageRefs = &Analyzer{
	Name: "pagerefs",
	Doc: "check that every exec.Page reference from PagePool.Get is " +
		"released, forwarded, stored, or returned on every path (including early error returns)",
	Run: func(pass *Pass) error {
		spec := &resSpec{
			desc:        "page",
			source:      "PagePool.Get",
			releaseVerb: "released",
			isAcquire: func(info *types.Info, call *ast.CallExpr) bool {
				return isMethodCall(info, call, "exec", "PagePool", "Get")
			},
			isRelease: func(info *types.Info, call *ast.CallExpr) bool {
				return isMethodCall(info, call, "exec", "Page", "Release")
			},
		}
		return runResFlow(pass, spec)
	},
}
