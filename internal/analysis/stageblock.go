package analysis

// stageblock encodes the rule that makes the stage scheduler's parking
// protocol sound: a stage worker must never block while holding a mutex.
// The pooled scheduler has a fixed number of workers per stage; a worker
// that parks on a channel while holding a lock can deadlock the whole stage
// (every other worker queues up on the lock, and the wakeup that would
// release the channel never runs). The exchange layer is built around this:
// trySend/tryNext move pages and register wakers under e.mu, perform no
// channel operation while it is held, and fire a waker (which may take a
// stage lock, or ping the cursor's one-slot channel) only after e.mu is
// released.
//
// Within internal/exec, the analyzer flags, while any sync.Mutex/RWMutex may
// be held on some path (the shared may-held dataflow of lockset.go, keyed by
// the receiver expression; a deferred Unlock holds to function exit):
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

func runStageBlock(pass *Pass) error {
	if !pathHasSuffix(pass.Pkg.Path(), "internal/exec") && !pathHasSuffix(pass.Pkg.Path(), "exec") {
		return nil
	}
	b := &blockChecker{reporter: reporter{pass: pass}, comms: selectComms(pass.Files)}
	lf := &lockFlow{classify: b.classifyMutexCall, visit: b.visit}
	lf.run(pass.Files)
	return nil
}

type blockChecker struct {
	reporter
	// comms maps the channel operation of each select clause to its select
	// when that select blocks (has no default), and to nil when it does not.
	// The CFG places a clause's communication in the clause's block as an
	// ordinary node; the select itself is no node.
	comms map[ast.Node]*ast.SelectStmt
}

// selectComms indexes the channel operations that select clauses perform.
func selectComms(files []*ast.File) map[ast.Node]*ast.SelectStmt {
	comms := make(map[ast.Node]*ast.SelectStmt)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			var ops []ast.Node
			blocking := sel
			for _, c := range sel.Body.List {
				switch comm := c.(*ast.CommClause).Comm.(type) {
				case nil:
					blocking = nil
				case *ast.SendStmt:
					ops = append(ops, comm)
				case *ast.ExprStmt:
					ops = append(ops, ast.Unparen(comm.X))
				case *ast.AssignStmt:
					ops = append(ops, ast.Unparen(comm.Rhs[0]))
				}
			}
			for _, op := range ops {
				comms[op] = blocking
			}
			return true
		})
	}
	return comms
}

// classifyMutexCall keys Lock/RLock/Unlock/RUnlock on a sync.Mutex or
// RWMutex by the printed receiver expression ("e.mu", "s.mgr.mu").
func (b *blockChecker) classifyMutexCall(call *ast.CallExpr) (key string, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	selInfo, found := b.pass.TypesInfo.Selections[sel]
	if !found {
		return "", false, false
	}
	path, name := typeName(selInfo.Recv())
	if path != "sync" || (name != "Mutex" && name != "RWMutex") {
		return "", false, false
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, b.pass.Fset, sel.X); err != nil {
		return "", false, false
	}
	return buf.String(), acquire, true
}

// visit flags n when it blocks, or takes the exchange lock, while s is held.
func (b *blockChecker) visit(n ast.Node, s heldSet) {
	if len(s) == 0 {
		return
	}
	lock := s.sorted()[0]
	if sel, isComm := b.comms[n]; isComm {
		// A select with a default is the non-blocking protocol.
		if sel != nil {
			b.reportOnce(sel.Pos(), "blocking select (no default case) while mutex "+lock+" is held")
		}
		return
	}
	switch n := n.(type) {
	case *ast.SendStmt:
		b.reportOnce(n.Pos(), "channel send while mutex "+lock+" is held")
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			b.reportOnce(n.Pos(), "channel receive while mutex "+lock+" is held")
		}
	case *ast.CallExpr:
		if isPkgFuncCall(b.pass.TypesInfo, n, "time", "Sleep") {
			b.reportOnce(n.Pos(), "time.Sleep while mutex "+lock+" is held")
			return
		}
		sel, ok := n.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		switch sel.Sel.Name {
		case "Wait": // sync.WaitGroup.Wait, sync.Cond.Wait
			b.reportOnce(n.Pos(), "call to blocking Wait while mutex "+lock+" is held")
		case "trySend", "tryNext":
			b.reportOnce(n.Pos(), "call to "+sel.Sel.Name+" (acquires the exchange lock) while mutex "+lock+" is held")
		}
	}
}
