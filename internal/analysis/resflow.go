package analysis

// resflow.go is the shared must-consume flow analysis behind pagerefs,
// spillfiles, and fsfiles. All three invariants have the same shape: a call
// mints a resource with an obligation attached (a pooled page reference, a
// temp file on disk, an open descriptor), and every control-flow path out of
// the function must discharge it — by an explicit release call, by forwarding
// the value to another function or goroutine, by storing it somewhere that
// outlives the function, or by returning it to the caller.
//
// The analysis runs as a forward dataflow over cfg.go's control-flow graphs
// (this environment has no golang.org/x/tools/go/cfg or /go/ssa). The state
// maps tracked local variables to facts: where the obligation was acquired,
// whether it is still outstanding on some path into the current point
// (may-live: a merge keeps an obligation alive unless every incoming path
// discharged it), and whether the error result bound alongside the
// acquisition still witnesses it. Condition edges refine the facts —
// `if err != nil` voids the obligation on the non-nil edge (the acquisition
// failed, there is nothing to release), and a `v == nil` edge voids v's own
// obligation (a nil handle carries no resource).
//
// Running to fixpoint is what the old path-enumeration walker could not do:
// it walked loop bodies once with shared state, so a `continue` that skipped
// the release leaked silently, and branchy functions forked a full state copy
// per path. Here loops converge in a couple of iterations and a leak carried
// around a back edge is caught where it is re-acquired (or at function exit).
//
// Reporting is two-phase for determinism: solve silently to fixpoint first,
// then walk the reachable blocks once in reverse postorder with reporting
// enabled. Return statements report obligations still live at the return
// site; obligations that fall off the end of the function report at their
// acquisition site; a plain re-acquisition over a live obligation reports
// the stranded one (the loop-leak signature). Duplicate (position, message)
// pairs collapse, so a leak seen both around a back edge and at exit reports
// once.
//
// Discharge is intentionally generous — any argument position, composite
// literal, assignment, channel send, closure capture, or address-of counts —
// so the analyzers stay quiet on ownership-transfer code (exchanges, fan-out
// taps, run lists) and loud only where a value provably dies unconsumed.
// Panic terminates a path without reporting: dying loudly is not a leak.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// resSpec configures one resource kind for the flow analysis.
type resSpec struct {
	// desc names the resource in diagnostics ("page", "spill file").
	desc string
	// source names the acquiring call in diagnostics ("PagePool.Get").
	source string
	// releaseVerb is the discharge verb in diagnostics ("released").
	releaseVerb string
	// isAcquire reports whether call mints a new resource (bound to the
	// first assignment target).
	isAcquire func(info *types.Info, call *ast.CallExpr) bool
	// isRelease reports whether call discharges the obligation on its
	// identifier receiver (Page.Release, spill.File.Close).
	isRelease func(info *types.Info, call *ast.CallExpr) bool
}

// obligation records where a tracked variable acquired its resource. Its
// fields are immutable after creation; per-path liveness lives in resFact.
type obligation struct {
	pos  token.Pos
	name string

	// errVar is the error result bound alongside the acquisition
	// (`f, err := spill.Create(...)`): on the branch where it is non-nil the
	// acquisition failed and there is nothing to release.
	errVar *types.Var
}

// resFact is the dataflow fact for one tracked variable on one path set.
type resFact struct {
	ob *obligation
	// live reports whether the obligation is still outstanding on some path
	// into the current point.
	live bool
	// errLive reports whether ob.errVar still witnesses the acquisition; it
	// turns off as soon as the error variable is reassigned — after that, a
	// non-nil check no longer says anything about whether the acquisition
	// succeeded.
	errLive bool
}

// resState maps tracked variables to their facts.
type resState map[*types.Var]resFact

func cloneRes(s resState) resState {
	c := make(resState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// mergeRes overlays path outcomes: an obligation is discharged after the
// merge only if every contributing path discharged it, and an error variable
// witnesses it only if no path reassigned it.
func mergeRes(dst, src resState) resState {
	for k, fs := range src {
		fd, ok := dst[k]
		if !ok {
			dst[k] = fs
			continue
		}
		fd.live = fd.live || fs.live
		fd.errLive = fd.errLive && fs.errLive
		if fs.ob.pos < fd.ob.pos {
			fd.ob = fs.ob
		}
		dst[k] = fd
	}
	return dst
}

func equalRes(a, b resState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, fa := range a {
		fb, ok := b[k]
		if !ok || fa.live != fb.live || fa.errLive != fb.errLive || fa.ob.pos != fb.ob.pos {
			return false
		}
	}
	return true
}

// resFlow applies one resSpec's transfer functions over one function body.
// The current state is swapped in per transfer application; reporting is off
// during the fixpoint iteration and on during the single deterministic
// reporting walk.
type resFlow struct {
	reporter
	spec      *resSpec
	state     resState
	reporting bool
}

// runResFlow applies spec to every function in the pass's package.
func runResFlow(pass *Pass, spec *resSpec) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
				analyzeBody(pass, spec, fd.Body)
				return false // nested FuncLits are analyzed by the flow itself
			}
			if fl, ok := n.(*ast.FuncLit); ok {
				analyzeBody(pass, spec, fl.Body)
				return false
			}
			return true
		})
	}
	return nil
}

// analyzeBody solves one function body to fixpoint, then replays the
// reachable blocks once with reporting enabled.
func analyzeBody(pass *Pass, spec *resSpec, body *ast.BlockStmt) {
	g := buildCFG(body)
	rf := &resFlow{reporter: reporter{pass: pass}, spec: spec}
	fns := FlowFuncs[resState]{
		Clone: cloneRes,
		Merge: mergeRes,
		Equal: equalRes,
		Node:  rf.node,
		Edge:  rf.edge,
	}
	in := ForwardFlow(g, make(resState), fns)

	rf.reporting = true
	replay(g, in, fns)
	// Obligations that reach Exit without passing a return statement fell off
	// the end of the function: no remaining chance of discharge.
	if g.Reachable(g.Exit) {
		for _, f := range sortedLive(in[g.Exit]) {
			rf.reportNever(f.ob)
		}
	}
}

// sortedLive returns the live facts of s ordered by acquisition position.
func sortedLive(s resState) []resFact {
	var out []resFact
	for _, f := range s {
		if f.live {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ob.pos < out[j].ob.pos })
	return out
}

func (rf *resFlow) reportNever(ob *obligation) {
	rf.reportOnce(ob.pos, fmt.Sprintf("%s %q from %s is never %s, forwarded, stored, or returned",
		rf.spec.desc, ob.name, rf.spec.source, rf.spec.releaseVerb))
}

func (rf *resFlow) reportReturnPath(ob *obligation, pos token.Pos) {
	rf.reportOnce(pos, fmt.Sprintf("%s %q from %s is not %s, forwarded, or stored on this return path",
		rf.spec.desc, ob.name, rf.spec.source, rf.spec.releaseVerb))
}

// edge refines the state along a condition edge: `err != nil` voids the
// obligations err witnesses on the non-nil edge (the acquisition failed),
// and a tracked variable compared against nil loses its obligation on the
// nil edge (a nil handle carries no resource).
func (rf *resFlow) edge(e *Edge, s resState) resState {
	if e.Cond == nil {
		return s
	}
	be, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return s
	}
	operand := be.X
	if isNilIdent(be.X) {
		operand = be.Y
	} else if !isNilIdent(be.Y) {
		return s
	}
	rf.state = s
	v := rf.identVar(ast.Unparen(operand))
	if v == nil {
		return s
	}
	nonNil := (be.Op == token.NEQ) != e.Negated
	if nonNil {
		for tv, f := range s {
			if f.ob.errVar == v && f.errLive && f.live {
				f.live = false
				s[tv] = f
			}
		}
	} else if f, ok := s[v]; ok && f.live {
		f.live = false
		s[v] = f
	}
	return s
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// node is the transfer function for one block node (a statement or a
// branch-entry expression).
func (rf *resFlow) node(n any, s resState) resState {
	rf.state = s
	switch n := n.(type) {
	case *ast.AssignStmt:
		rf.assign(n.Lhs, n.Rhs)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					rf.assign(lhs, vs.Values)
				}
			}
		}
	case *ast.ExprStmt:
		rf.useExpr(n.X, false)
		if isPanicCall(n.X) {
			rf.killAll() // dying loudly is not a leak
		}
	case *ast.SendStmt:
		rf.useExpr(n.Chan, false)
		rf.useExpr(n.Value, true)
	case *ast.IncDecStmt:
		rf.useExpr(n.X, false)
	case *ast.DeferStmt:
		rf.call(n.Call)
	case *ast.GoStmt:
		rf.call(n.Call)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			rf.useExpr(r, true)
		}
		if rf.reporting {
			for _, f := range sortedLive(rf.state) {
				rf.reportReturnPath(f.ob, n.Pos())
			}
		}
		rf.killAll()
	case *ast.RangeStmt:
		// The per-iteration key/value binding: assigned variables stop
		// witnessing an earlier acquisition's error result.
		rf.errReassigned(rf.identVar(n.Key))
		rf.errReassigned(rf.identVar(n.Value))
	case ast.Expr:
		rf.useExpr(n, false)
	}
	return rf.state
}

// killAll discharges every outstanding obligation (return and panic sites:
// already reported, or intentionally silent).
func (rf *resFlow) killAll() {
	for v, f := range rf.state {
		if f.live {
			f.live = false
			rf.state[v] = f
		}
	}
}

// acquire attaches a fresh obligation to v. A plain acquisition over a still
// live obligation strands the old resource — the loop-leak and
// overwrite-leak signature — and reports it at its acquisition site.
func (rf *resFlow) acquire(v *types.Var, name string, pos token.Pos, errVar *types.Var) {
	if old, ok := rf.state[v]; ok && old.live && rf.reporting {
		rf.reportNever(old.ob)
	}
	rf.state[v] = resFact{
		ob:      &obligation{pos: pos, name: name, errVar: errVar},
		live:    true,
		errLive: errVar != nil,
	}
}

// errReassigned invalidates acquisition-error tracking for obligations whose
// error variable was overwritten.
func (rf *resFlow) errReassigned(v *types.Var) {
	if v == nil {
		return
	}
	for tv, f := range rf.state {
		if f.ob.errVar == v && f.errLive {
			f.errLive = false
			rf.state[tv] = f
		}
	}
}

// identVar resolves an identifier to the local variable it names.
func (rf *resFlow) identVar(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := rf.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = rf.pass.TypesInfo.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// consume discharges the obligation on v, if tracked.
func (rf *resFlow) consume(v *types.Var) {
	if v == nil {
		return
	}
	if f, ok := rf.state[v]; ok && f.live {
		f.live = false
		rf.state[v] = f
	}
}

// useExpr scans an expression for ownership events. owning reports whether a
// bare tracked identifier in this position transfers the resource onward
// (argument, return value, stored element) as opposed to merely reading it
// (selector base, comparison operand).
func (rf *resFlow) useExpr(e ast.Expr, owning bool) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		if owning {
			rf.consume(rf.identVar(e))
		}
	case *ast.ParenExpr:
		rf.useExpr(e.X, owning)
	case *ast.SelectorExpr:
		rf.useExpr(e.X, false)
	case *ast.StarExpr:
		rf.useExpr(e.X, false)
	case *ast.UnaryExpr:
		rf.useExpr(e.X, e.Op == token.AND) // &v escapes; !v, -v, <-v read
	case *ast.BinaryExpr:
		rf.useExpr(e.X, false)
		rf.useExpr(e.Y, false)
	case *ast.IndexExpr:
		rf.useExpr(e.X, false)
		rf.useExpr(e.Index, false)
	case *ast.SliceExpr:
		rf.useExpr(e.X, false)
		rf.useExpr(e.Low, false)
		rf.useExpr(e.High, false)
		rf.useExpr(e.Max, false)
	case *ast.TypeAssertExpr:
		rf.useExpr(e.X, owning)
	case *ast.KeyValueExpr:
		rf.useExpr(e.Key, false)
		rf.useExpr(e.Value, owning)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			rf.useExpr(elt, true)
		}
	case *ast.FuncLit:
		// The closure may discharge captured obligations at any later time;
		// treat capture as escape, then analyze the closure independently.
		rf.captureClosure(e)
	case *ast.CallExpr:
		rf.call(e)
	default:
		// Remaining expression kinds (literals, types) carry no ownership.
	}
}

// captureClosure marks enclosing tracked variables referenced inside lit as
// escaped and runs a fresh analysis over the closure body (reporting pass
// only: the fixpoint iteration may apply this transfer many times, the
// closure's own obligations must report exactly once).
func (rf *resFlow) captureClosure(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v := rf.identVar(id); v != nil {
				rf.consume(v)
			}
		}
		return true
	})
	if rf.reporting {
		saved := rf.state
		analyzeBody(rf.pass, rf.spec, lit.Body)
		rf.state = saved
	}
}

// call handles release recognition, then argument forwarding.
func (rf *resFlow) call(call *ast.CallExpr) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && rf.spec.isRelease(rf.pass.TypesInfo, call) {
		rf.consume(rf.identVar(sel.X))
	} else {
		rf.useExpr(call.Fun, false)
	}
	for _, arg := range call.Args {
		rf.useExpr(arg, true)
	}
}

func nameOf(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// assign processes one assignment or value-spec shape: RHS uses first, then
// a possible acquisition bound to the first target.
func (rf *resFlow) assign(lhs, rhs []ast.Expr) {
	// Any variable overwritten here stops witnessing an earlier
	// acquisition's error result.
	for _, l := range lhs {
		if _, ok := l.(*ast.Ident); ok {
			rf.errReassigned(rf.identVar(l))
		}
	}
	acquired := false
	if len(rhs) == 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok && rf.spec.isAcquire(rf.pass.TypesInfo, call) {
			// Scan the acquiring call's arguments, then bind the obligation.
			rf.useExpr(call.Fun, false)
			for _, arg := range call.Args {
				rf.useExpr(arg, true)
			}
			if len(lhs) > 0 {
				if v := rf.identVar(lhs[0]); v != nil && nameOf(lhs[0]) != "_" {
					var errVar *types.Var
					if len(lhs) > 1 && nameOf(lhs[1]) != "_" {
						errVar = rf.identVar(lhs[1])
					}
					rf.acquire(v, nameOf(lhs[0]), lhs[0].Pos(), errVar)
					acquired = true
				}
			}
		}
	}
	if !acquired {
		for _, r := range rhs {
			rf.useExpr(r, true)
		}
	}
	for _, l := range lhs {
		if _, ok := l.(*ast.Ident); !ok {
			rf.useExpr(l, false) // index/selector targets: scan their bases
		}
	}
}
