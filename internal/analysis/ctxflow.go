package analysis

// ctxflow encodes the context-threading discipline the streaming client API
// established: cancellation propagates from the client Rows cursor through
// the five stages into running executions, which only works if every link in
// the call chain forwards the caller's context. Two failure shapes break the
// chain silently:
//
//   - minting a fresh context.Background()/context.TODO() inside the engine
//     (the cancellation the user requested never reaches the pipeline), and
//   - calling the context-free variant of an API that has a *Context twin
//     (Query instead of QueryContext) from a function that received a ctx.
//
// The check is scoped to the context-threaded packages — internal/exec,
// internal/engine, internal/server, internal/txn, and the stagedb root —
// because that is where a dropped context turns into an uncancellable query
// (in the server's case: a session that ignores hard-stop and deadline
// plumbing, so drain and per-query timeouts silently stop working; in txn's
// case: a lock wait that outlives its canceled query, squatting in the
// queue and wedging the FIFO behind it). Every statement entry point of
// these packages takes the caller's ctx, so none needs to mint one.

import (
	"go/ast"
	"go/types"
)

// ctxflowSuffixes are the import-path suffixes the analyzer applies to;
// the client-facing root package is matched exactly so cmd/stagedb (a main
// package, where a top-level Background is idiomatic) stays out of scope.
var ctxflowSuffixes = []string{"internal/exec", "internal/engine", "internal/server", "internal/txn"}

// CtxFlow reports context.Background()/TODO() in context-threaded packages
// and ctx-receiving functions that call a context-free variant of an API
// with a *Context twin.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "check context threading in internal/exec, internal/engine, internal/server, " +
		"internal/txn, and stagedb: no context.Background/TODO outside tests (in txn: " +
		"no context-free lock waits), and functions receiving a ctx must not call the " +
		"context-free twin of a *Context API",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	applies := pass.Pkg.Path() == "stagedb"
	for _, sfx := range ctxflowSuffixes {
		if pathHasSuffix(pass.Pkg.Path(), sfx) {
			applies = true
			break
		}
	}
	if !applies {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				for _, fn := range []string{"Background", "TODO"} {
					if isPkgFuncCall(pass.TypesInfo, n, "context", fn) {
						pass.Reportf(n.Pos(),
							"context.%s breaks the cancellation chain in %s; thread the caller's ctx instead",
							fn, pass.Pkg.Path())
					}
				}
			case *ast.FuncDecl:
				if n.Body != nil && hasCtxParam(pass.TypesInfo, n) {
					checkCtxTwins(pass, n.Body)
				}
			}
			return true
		})
	}
	return nil
}

// hasCtxParam reports whether the declared function receives a
// context.Context parameter.
func hasCtxParam(info *types.Info, fd *ast.FuncDecl) bool {
	obj, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	return signatureHasCtx(obj.Type().(*types.Signature))
}

func signatureHasCtx(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	path, name := typeName(t)
	return path == "context" && name == "Context"
}

// checkCtxTwins flags calls to context-free functions that have a *Context
// twin, from inside a function that received a ctx.
func checkCtxTwins(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || signatureHasCtx(fn.Type().(*types.Signature)) {
			return true
		}
		if twin := contextTwin(fn); twin != nil {
			pass.Reportf(call.Pos(),
				"call to %s drops the ctx this function received; use %s",
				fn.Name(), twin.Name())
		}
		return true
	})
}

// calleeFunc resolves a call's target to a declared function or method.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// contextTwin looks up fn's sibling <Name>Context and returns it when the
// sibling accepts a context.
func contextTwin(fn *types.Func) *types.Func {
	sig := fn.Type().(*types.Signature)
	name := fn.Name() + "Context"
	var obj types.Object
	if recv := sig.Recv(); recv != nil {
		obj, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), name)
	} else if fn.Pkg() != nil {
		obj = fn.Pkg().Scope().Lookup(name)
	}
	twin, ok := obj.(*types.Func)
	if !ok || !signatureHasCtx(twin.Type().(*types.Signature)) {
		return nil
	}
	return twin
}
