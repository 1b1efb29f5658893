package analysis

// ctxflow encodes the context-threading discipline the streaming client API
// established: cancellation propagates from the client Rows cursor through
// the five stages into running executions, which only works if every link in
// the call chain forwards the caller's context. Every statement entry point
// takes the caller's ctx as its first argument, so none needs to mint one and
// the type system rules out calling a context-free variant; the shape left to
// check is minting a fresh context.Background()/context.TODO() inside the
// engine, where the cancellation the user requested never reaches the
// pipeline.
//
// The check is scoped to the context-threaded packages — internal/exec,
// internal/engine, internal/server, internal/txn, and the stagedb root —
// because that is where a dropped context turns into an uncancellable query
// (in the server's case: a session that ignores hard-stop and deadline
// plumbing, so drain and per-query timeouts silently stop working; in txn's
// case: a lock wait that outlives its canceled query, squatting in the
// queue and wedging the FIFO behind it).

import "go/ast"

// ctxflowSuffixes are the import-path suffixes the analyzer applies to;
// the client-facing root package is matched exactly so cmd/stagedb (a main
// package, where a top-level Background is idiomatic) stays out of scope.
var ctxflowSuffixes = []string{"internal/exec", "internal/engine", "internal/server", "internal/txn"}

// CtxFlow reports context.Background()/TODO() in context-threaded packages.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "check context threading in internal/exec, internal/engine, internal/server, " +
		"internal/txn, and stagedb: no context.Background/TODO outside tests (in txn: " +
		"no context-free lock waits)",
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
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, fn := range []string{"Background", "TODO"} {
				if isPkgFuncCall(pass.TypesInfo, call, "context", fn) {
					pass.Reportf(call.Pos(),
						"context.%s breaks the cancellation chain in %s; thread the caller's ctx instead",
						fn, pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}
