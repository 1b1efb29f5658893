package analysis

// lockset.go is the one held-lock dataflow behind lockorder and stageblock,
// in the shape of RacerX (Engler & Ashcraft, SOSP 2003): a single lockset
// analysis over control-flow paths drives several lock checks. Each function
// body is lowered by buildCFG and solved by ForwardFlow over a may-held set:
// a lock held on any path into a point counts as held there, so an unlock in
// a branch that returns early clears nothing for the code after the branch.
// A client supplies a classifier that names the locks it tracks, and hooks
// that see the held set at each acquisition and at every other node, during
// the one reporting walk after the fixpoint.
//
// Closures are analyzed as their own functions with an empty held set: they
// run on their own call path (goroutine, callback), not under the locks held
// where they are created. Deferred and go statements contribute only their
// arguments: a deferred unlock keeps the lock held to function exit, which is
// the point of defer, and a launched call runs elsewhere.

import (
	"go/ast"
	"go/token"
	"sort"
)

// heldSet is the dataflow state: the locks that may be held.
type heldSet map[string]bool

func cloneHeld(s heldSet) heldSet {
	c := make(heldSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func mergeHeld(dst, src heldSet) heldSet {
	for k := range src {
		dst[k] = true
	}
	return dst
}

func equalHeld(a, b heldSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// sorted returns the held locks in order, for deterministic diagnostics.
func (s heldSet) sorted() []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lockFlow runs the held-lock dataflow for one analyzer.
type lockFlow struct {
	// classify recognizes an acquisition or release of a tracked lock and
	// names the lock.
	classify func(call *ast.CallExpr) (key string, acquire, ok bool)
	// acquire, when non-nil, sees each acquisition in the reporting walk
	// with the set held before it.
	acquire func(key string, pos token.Pos, s heldSet)
	// visit, when non-nil, sees every other node of the reporting walk, in
	// source order, with the set held before it.
	visit func(n ast.Node, s heldSet)

	reporting bool
}

// run analyzes every function body of files, closures included.
func (lf *lockFlow) run(files []*ast.File) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					lf.checkBody(n.Body)
				}
			case *ast.FuncLit:
				lf.checkBody(n.Body)
			}
			return true
		})
	}
}

// checkBody solves one function body to fixpoint silently, then replays it
// once with the hooks enabled.
func (lf *lockFlow) checkBody(body *ast.BlockStmt) {
	g := buildCFG(body)
	fns := FlowFuncs[heldSet]{
		Clone: cloneHeld,
		Merge: mergeHeld,
		Equal: equalHeld,
		Node:  lf.node,
	}
	lf.reporting = false
	in := ForwardFlow(g, make(heldSet), fns)
	lf.reporting = true
	replay(g, in, fns)
}

// node applies one block node.
func (lf *lockFlow) node(n any, s heldSet) heldSet {
	switch n := n.(type) {
	case *ast.DeferStmt:
		return lf.scanAll(n.Call.Args, s)
	case *ast.GoStmt:
		return lf.scanAll(n.Call.Args, s)
	case *ast.RangeStmt:
		// The header's RangeStmt node stands for the per-iteration key/value
		// assignment only; X and the body have their own blocks.
		return lf.scanAll([]ast.Expr{n.Key, n.Value}, s)
	case ast.Node:
		return lf.scan(n, s)
	}
	return s
}

func (lf *lockFlow) scanAll(exprs []ast.Expr, s heldSet) heldSet {
	for _, e := range exprs {
		if e != nil {
			s = lf.scan(e, s)
		}
	}
	return s
}

// scan applies every lock call under root in source order, skipping nested
// closures, and shows the reporting walk every other node.
func (lf *lockFlow) scan(root ast.Node, s heldSet) heldSet {
	ast.Inspect(root, func(x ast.Node) bool {
		if x == nil {
			return false
		}
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			if key, acquire, ok := lf.classify(call); ok {
				if !acquire {
					delete(s, key)
					return true
				}
				if lf.reporting && lf.acquire != nil {
					lf.acquire(key, call.Pos(), s)
				}
				s[key] = true
				return true
			}
		}
		if lf.reporting && lf.visit != nil {
			lf.visit(x, s)
		}
		return true
	})
	return s
}
