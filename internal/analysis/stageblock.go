package analysis

// stageblock encodes the rule that makes the stage scheduler's parking
// protocol sound: a stage worker must never block while holding a mutex.
// The pooled scheduler has a fixed number of workers per stage; a worker
// that parks on a channel while holding a lock can deadlock the whole stage
// (every other worker queues up on the lock, and the wakeup that would
// release the channel never runs). The exchange layer is built around this —
// trySend/tryNext register wakers under e.mu but only ever perform
// non-blocking channel operations (select with a default case) while it is
// held.
//
// Within internal/exec, the analyzer flags, while any sync.Mutex/RWMutex is
// held (Lock/RLock seen, or Unlock deferred, with no intervening Unlock):
//
//   - channel sends and receives outside a select,
//   - select statements without a default case (these block),
//   - calls that block by contract: sync.WaitGroup.Wait, sync.Cond.Wait,
//     time.Sleep, and
//   - calls to trySend/tryNext (they acquire the exchange lock internally;
//     entering them with another lock held risks lock-order inversion).
//
// close(ch) and select-with-default are non-blocking and stay legal under a
// lock; goroutine launches (go f()) run elsewhere and are not blocking.

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
)

// StageBlock reports blocking operations performed while a mutex is held in
// stage-scheduler and operator-drive code.
var StageBlock = &Analyzer{
	Name: "stageblock",
	Doc: "check that no mutex is held across blocking channel operations, blocking " +
		"selects, or trySend/tryNext in stage and operator code (internal/exec)",
	Run: runStageBlock,
}

// blockingMethods are methods that block by contract in this codebase.
var blockingMethods = map[string]bool{
	"Wait": true, // sync.WaitGroup.Wait / sync.Cond.Wait
}

// lockTakingMethods acquire a lock internally; calling them with another
// lock held risks lock-order inversion.
var lockTakingMethods = map[string]bool{
	"trySend": true,
	"tryNext": true,
}

func runStageBlock(pass *Pass) error {
	if !pathHasSuffix(pass.Pkg.Path(), "internal/exec") && !pathHasSuffix(pass.Pkg.Path(), "exec") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					newLockWalker(pass).walkBody(n.Body)
				}
				return false
			case *ast.FuncLit:
				newLockWalker(pass).walkBody(n.Body)
				return false
			}
			return true
		})
	}
	return nil
}

// lockWalker tracks the set of held mutexes through one function body.
// Holds are keyed by the printed receiver expression ("e.mu", "s.mgr.mu"),
// which is exact for the straight-line Lock...Unlock shapes the exec package
// uses.
type lockWalker struct {
	pass *Pass
	held map[string]bool
}

func newLockWalker(pass *Pass) *lockWalker {
	return &lockWalker{pass: pass, held: make(map[string]bool)}
}

func (w *lockWalker) walkBody(body *ast.BlockStmt) {
	for _, s := range body.List {
		w.stmt(s)
	}
}

// exprKey renders an expression for hold tracking.
func exprKey(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "?"
	}
	return buf.String()
}

// anyHeld returns the name of one held lock, or "".
func (w *lockWalker) anyHeld() string {
	for k, v := range w.held {
		if v {
			return k
		}
	}
	return ""
}

// mutexMethod matches x.Lock()/x.Unlock()-style calls on sync mutexes and
// returns the hold key and method name.
func (w *lockWalker) mutexMethod(call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	selInfo, found := w.pass.TypesInfo.Selections[sel]
	if !found {
		return "", "", false
	}
	path, name := typeName(selInfo.Recv())
	if path != "sync" || (name != "Mutex" && name != "RWMutex") {
		return "", "", false
	}
	return exprKey(w.pass.Fset, sel.X), sel.Sel.Name, true
}

// checkCall flags blocking calls made under a lock, then updates hold state
// for Lock/Unlock calls.
func (w *lockWalker) checkCall(call *ast.CallExpr, deferred bool) {
	if key, method, ok := w.mutexMethod(call); ok {
		switch method {
		case "Lock", "RLock":
			w.held[key] = true
		case "Unlock", "RUnlock":
			if deferred {
				// defer mu.Unlock(): the lock stays held until return, so
				// everything after this statement runs under it.
				w.held[key] = true
			} else {
				delete(w.held, key)
			}
		}
		return
	}
	if lock := w.anyHeld(); lock != "" {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			name := sel.Sel.Name
			if blockingMethods[name] {
				w.pass.Reportf(call.Pos(), "call to blocking %s while mutex %s is held", name, lock)
			} else if lockTakingMethods[name] {
				w.pass.Reportf(call.Pos(), "call to %s (acquires the exchange lock) while mutex %s is held", name, lock)
			}
		}
		if isPkgFuncCall(w.pass.TypesInfo, call, "time", "Sleep") {
			w.pass.Reportf(call.Pos(), "time.Sleep while mutex %s is held", lock)
		}
	}
	// Scan arguments for nested calls/sends (rare, but cheap to cover).
	for _, arg := range call.Args {
		w.expr(arg)
	}
}

// expr scans an expression for blocking operations under a held lock.
func (w *lockWalker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			if lock := w.anyHeld(); lock != "" {
				w.pass.Reportf(e.Pos(), "channel receive while mutex %s is held", lock)
			}
		}
		w.expr(e.X)
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.CallExpr:
		w.checkCall(e, false)
	case *ast.SelectorExpr:
		w.expr(e.X)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.FuncLit:
		// A literal's body runs when called, typically on another goroutine
		// or at defer time; analyze it with its own empty hold set.
		newLockWalker(w.pass).walkBody(e.Body)
	}
}

func (w *lockWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.SendStmt:
		if lock := w.anyHeld(); lock != "" {
			w.pass.Reportf(s.Pos(), "channel send while mutex %s is held", lock)
		}
		w.expr(s.Value)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.DeferStmt:
		if _, method, ok := w.mutexMethod(s.Call); ok && (method == "Unlock" || method == "RUnlock") {
			w.checkCall(s.Call, true)
		} else {
			// The deferred call runs at return; analyze its function literal
			// (if any) separately, and ignore its blocking behavior here —
			// locks deferred-unlocked above keep the rest of the body covered.
			for _, arg := range s.Call.Args {
				w.expr(arg)
			}
			if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
				newLockWalker(w.pass).walkBody(lit.Body)
			}
		}
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			w.expr(arg)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			newLockWalker(w.pass).walkBody(lit.Body)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r)
		}
	case *ast.BlockStmt:
		w.walkBody(s)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Body)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Body)
		w.stmt(s.Post)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.stmt(s.Body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e)
				}
				for _, st := range cc.Body {
					w.stmt(st)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, st := range cc.Body {
					w.stmt(st)
				}
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if lock := w.anyHeld(); lock != "" && !hasDefault {
			w.pass.Reportf(s.Pos(), "blocking select (no default case) while mutex %s is held", lock)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				// Comm clauses inside a select are the non-blocking protocol;
				// only their bodies are walked for further violations.
				for _, st := range cc.Body {
					w.stmt(st)
				}
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}
