package analysis

// rowretain encodes the exchange-page lifetime rule from
// internal/exec/pagepool.go: a row carved from a page's value storage lives
// exactly as long as the page, so anything that keeps a row longer copies it
// first. A row read through (*Page).Row, or out of Page.Rows, that is stored
// into a struct field, a map, a package variable or a slice the function
// returns — without passing through a call such as Clone or an operator
// arena's copyRow, whose result is storage of its own — is a use-after-
// recycle waiting for the next page to overwrite it. The first result of
// (*spill.Reader).Next is the same kind of row: the reader decodes its next
// row over it (internal/exec/spill), so it is tracked like a row of a page
// the reader holds.
//
// Two stores are part of the protocol and pass: a row may sit in a field of
// the object that holds its page or reader (an operator keeping the probe row
// of the probe page or partition reader it still holds, a k-way merge keeping
// each run's head next to the run's reader, a Rows cursor keeping the current
// row of its current page), and a method may return a row of a page its
// receiver or a parameter holds (Page.Row, Rows.NextBatch): the caller's
// lifetime is the holder's. A field that keeps a row this way yields a page
// row when read, so copying the cursor's current row into a result still
// needs the copy.
//
// The analysis is flow-insensitive within a function (a local that ever holds
// a page row is a page row everywhere) and follows rows into the package's
// own functions: a parameter its function stores is a sink at every call
// site, and the row parameters of a function used as a value — a compiled
// predicate handed to Page.narrow — are page rows. Only values whose type can
// hold a row are tracked, so a Value copied out of a row is free to go
// anywhere. The check is scoped to internal/exec and the stagedb root, the
// packages that read exchange pages.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RowRetain reports page rows stored past their page's lifetime.
var RowRetain = &Analyzer{
	Name: "rowretain",
	Doc: "check that in internal/exec and stagedb a row read from an exchange page (Page.Row, " +
		"Page.Rows) or a spill reader (spill.Reader.Next) is copied (Clone, an operator arena) " +
		"before it is stored in a field, a map, a package variable or a returned slice",
	Run: runRowRetain,
}

func runRowRetain(pass *Pass) error {
	if pass.Pkg.Path() != "stagedb" && !pathHasSuffix(pass.Pkg.Path(), "internal/exec") {
		return nil
	}
	rowT := pageRowType(pass.Pkg)
	if rowT == nil {
		return nil
	}
	rr := &rowRetain{pass: pass, rowT: rowT,
		escapes: make(map[*types.Func][]bool), heldFields: make(map[*types.Var]bool)}
	rr.asValue = rr.funcsUsedAsValues()
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	// First the fields that keep a row next to its page, then parameter
	// summaries — a parameter escapes if its function stores it or passes it
	// to a parameter that escapes — each to a fixpoint; then the report.
	for n := -1; n != len(rr.heldFields); {
		n = len(rr.heldFields)
		for _, fd := range decls {
			rr.bodyFlow(fd, false).run()
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			params := fn.Type().(*types.Signature).Params()
			esc := rr.escapes[fn]
			if esc == nil {
				esc = make([]bool, params.Len())
				rr.escapes[fn] = esc
			}
			for i := 0; i < params.Len(); i++ {
				if esc[i] || !rr.rowish(params.At(i).Type(), 0) {
					continue
				}
				f := rr.newFlow(fd, false)
				f.seed(params.At(i))
				if f.run() {
					esc[i], changed = true, true
				}
			}
		}
	}
	for _, fd := range decls {
		rr.bodyFlow(fd, true).run()
	}
	return nil
}

// bodyFlow analyses a function's own page rows: those it reads, plus its row
// parameters when the function is used as a value (a predicate handed to
// Page.narrow receives page rows).
func (rr *rowRetain) bodyFlow(fd *ast.FuncDecl, report bool) *rowFlow {
	f := rr.newFlow(fd, report)
	if fn, _ := rr.pass.TypesInfo.Defs[fd.Name].(*types.Func); fn != nil && rr.asValue[fn] {
		params := fn.Type().(*types.Signature).Params()
		for i := 0; i < params.Len(); i++ {
			if rr.rowish(params.At(i).Type(), 0) {
				f.seed(params.At(i))
			}
		}
	}
	return f
}

// pageRowType finds the exchange page type (exec.Page, in the package itself
// or an import) and returns the element type of its Rows field.
func pageRowType(pkg *types.Package) types.Type {
	for _, p := range append([]*types.Package{pkg}, pkg.Imports()...) {
		if !pathHasSuffix(p.Path(), "exec") {
			continue
		}
		tn, ok := p.Scope().Lookup("Page").(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Name() == "Rows" {
				if s, ok := f.Type().Underlying().(*types.Slice); ok {
					return s.Elem()
				}
			}
		}
	}
	return nil
}

type rowRetain struct {
	pass       *Pass
	rowT       types.Type
	escapes    map[*types.Func][]bool // per function: which parameters it stores
	heldFields map[*types.Var]bool    // fields that keep a row next to its page
	asValue    map[*types.Func]bool   // functions with row parameters used as values
}

// rowish reports whether a value of type t can hold a page row: the row type
// itself, or a slice, array, map, pointer or struct with one inside.
func (rr *rowRetain) rowish(t types.Type, depth int) bool {
	if depth > 4 {
		return false
	}
	if types.Identical(t, rr.rowT) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return rr.rowish(u.Elem(), depth+1)
	case *types.Array:
		return rr.rowish(u.Elem(), depth+1)
	case *types.Map:
		return rr.rowish(u.Elem(), depth+1)
	case *types.Pointer:
		return rr.rowish(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if rr.rowish(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}

// funcsUsedAsValues collects the package's functions with a row parameter
// that are referenced other than by a direct call.
func (rr *rowRetain) funcsUsedAsValues() map[*types.Func]bool {
	info := rr.pass.TypesInfo
	called := make(map[*ast.Ident]bool)
	for _, f := range rr.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					called[fun] = true
				case *ast.SelectorExpr:
					called[fun.Sel] = true
				}
			}
			return true
		})
	}
	used := make(map[*types.Func]bool)
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || called[id] || fn.Pkg() != rr.pass.Pkg {
			continue
		}
		params := fn.Type().(*types.Signature).Params()
		for i := 0; i < params.Len(); i++ {
			if rr.rowish(params.At(i).Type(), 0) {
				used[fn] = true
			}
		}
	}
	return used
}

// rowTaint is what the analysis knows about a value holding page rows: the
// variable that holds the page they came from (nil: unknown).
type rowTaint struct {
	holder types.Object
}

// rowFlow analyses one function.
type rowFlow struct {
	rr      *rowRetain
	fd      *ast.FuncDecl
	report  bool // report sinks; otherwise compute a parameter summary
	taint   map[types.Object]rowTaint
	heldBy  map[types.Object]types.Object // local page variable -> variable whose field keeps it
	params  map[types.Object]bool         // receiver and parameters
	changed bool
	final   bool // the checking walk, after propagation settled
	sunk    bool
}

func (rr *rowRetain) newFlow(fd *ast.FuncDecl, report bool) *rowFlow {
	f := &rowFlow{rr: rr, fd: fd, report: report,
		taint: make(map[types.Object]rowTaint), heldBy: make(map[types.Object]types.Object),
		params: make(map[types.Object]bool)}
	info := rr.pass.TypesInfo
	for _, fl := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					f.params[obj] = true
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			id, ok := ast.Unparen(rhs).(*ast.Ident)
			if !ok {
				continue
			}
			if _, isField := as.Lhs[i].(*ast.SelectorExpr); !isField {
				continue
			}
			if v, w := info.Uses[id], f.root(as.Lhs[i]); v != nil && w != nil && w != v {
				f.heldBy[v] = w
			}
		}
		return true
	})
	return f
}

// seed marks a parameter as holding page rows of unknown origin.
func (f *rowFlow) seed(v types.Object) { f.taint[v] = rowTaint{} }

// run propagates to a fixpoint, then walks once more checking sinks. It
// reports whether any sink was reached.
func (f *rowFlow) run() bool {
	for f.changed = true; f.changed; {
		f.changed = false
		f.walk()
	}
	f.sunk, f.final = false, true
	f.walk()
	return f.sunk
}

func (f *rowFlow) walk() {
	ast.Inspect(f.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					f.assign(n.Lhs[i], n.Rhs[i])
				}
			} else if t, ok := f.spillRow(n.Rhs[0]); ok {
				f.assignTaint(n.Lhs[0], t) // row, ok, err := r.Next()
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					f.assign(n.Names[i], n.Values[i])
				}
			}
		case *ast.RangeStmt:
			if t, ok := f.taintOf(n.X); ok && n.Value != nil {
				f.assignTaint(n.Value, t)
			}
		case *ast.ReturnStmt:
			if !f.report {
				return true // a summary asks only whether the function stores
			}
			for _, res := range n.Results {
				if t, ok := f.taintOf(res); ok && !f.holdsForCaller(t.holder) {
					f.sink(res.Pos(), "is returned past its page's release")
				}
			}
		case *ast.CallExpr:
			f.call(n)
		}
		return true
	})
}

// spillRow reports whether e is a call of (*spill.Reader).Next, whose row is
// held by the variable holding the reader.
func (f *rowFlow) spillRow(e ast.Expr) (rowTaint, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || !isMethodCall(f.rr.pass.TypesInfo, call, "exec/spill", "Reader", "Next") {
		return rowTaint{}, false
	}
	return rowTaint{holder: f.holderOf(call.Fun.(*ast.SelectorExpr).X)}, true
}

// holdsForCaller reports whether a returned row's page outlives the call:
// the receiver or a parameter holds it.
func (f *rowFlow) holdsForCaller(holder types.Object) bool {
	return holder != nil && f.params[holder]
}

// assign handles one lhs = rhs pair.
func (f *rowFlow) assign(lhs, rhs ast.Expr) {
	if t, ok := f.taintOf(rhs); ok {
		f.assignTaint(lhs, t)
	}
}

// assignTaint handles lhs receiving page rows: a local takes the taint, any
// other destination is a store.
func (f *rowFlow) assignTaint(lhs ast.Expr, t rowTaint) {
	info := f.rr.pass.TypesInfo
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := info.Defs[l]
		if obj == nil {
			obj = info.Uses[l]
		}
		v, ok := obj.(*types.Var)
		if !ok || !f.rr.rowish(v.Type(), 0) {
			return
		}
		if f.isLocal(v) {
			f.taintVar(v, t)
			return
		}
		f.sink(l.Pos(), "is stored in package variable "+l.Name+", which outlives the page")
	case *ast.IndexExpr:
		if _, isMap := info.TypeOf(l.X).Underlying().(*types.Map); !isMap {
			if id, ok := ast.Unparen(l.X).(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && f.isLocal(v) {
					f.taintVar(v, t) // a local slice now carries page rows
					return
				}
			}
		}
		f.store(l, t)
	default:
		f.store(l, t)
	}
}

// store checks a row stored through a field, map or slice element: allowed
// only into the object holding the row's page. A field that keeps a row next
// to its page is remembered, so reading it later yields a page row again.
func (f *rowFlow) store(l ast.Expr, t rowTaint) {
	if t.holder == nil || f.root(l) != t.holder {
		f.sink(l.Pos(), "is stored in "+types.ExprString(l)+", which outlives the page")
		return
	}
	if sel, ok := l.(*ast.SelectorExpr); ok {
		if fv, ok := f.rr.pass.TypesInfo.Uses[sel.Sel].(*types.Var); ok && fv.IsField() {
			f.rr.heldFields[fv] = true
		}
	}
}

// call checks arguments passed to parameters that their callee stores.
func (f *rowFlow) call(call *ast.CallExpr) {
	info := f.rr.pass.TypesInfo
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	esc := f.rr.escapes[fn]
	for i, arg := range call.Args {
		if i >= len(esc) || !esc[i] {
			continue
		}
		if _, ok := f.taintOf(arg); ok {
			f.sink(arg.Pos(), "is passed to "+fn.Name()+", which stores it")
		}
	}
}

// taintVar merges t into a local's taint; two different holders make it
// unknown.
func (f *rowFlow) taintVar(v types.Object, t rowTaint) {
	old, had := f.taint[v]
	switch {
	case !had:
		f.taint[v] = t
	case old.holder != t.holder && old.holder != nil:
		f.taint[v] = rowTaint{}
	default:
		return
	}
	f.changed = true
}

func (f *rowFlow) sink(pos token.Pos, what string) {
	if !f.final {
		return
	}
	f.sunk = true
	if f.report {
		f.rr.pass.Reportf(pos, "a row read from an exchange page or a spill reader %s; "+
			"copy it first (Clone, or an operator arena's copyRow)", what)
	}
}

// isLocal reports whether v is declared inside the function body.
func (f *rowFlow) isLocal(v *types.Var) bool {
	return v.Pos() >= f.fd.Body.Pos() && v.Pos() < f.fd.Body.End()
}

// root returns the variable an lvalue or page expression is rooted at:
// x in x, x.f.g, x[i].f, *x.
func (f *rowFlow) root(e ast.Expr) types.Object {
	info := f.rr.pass.TypesInfo
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; !ok || sel.Kind() != types.FieldVal {
				return nil
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// holderOf resolves the variable holding the page that page expression e
// denotes: the root of a field path, or — for a local page variable stored
// into some object's field — that object.
func (f *rowFlow) holderOf(e ast.Expr) types.Object {
	r := f.root(e)
	if _, isIdent := ast.Unparen(e).(*ast.Ident); isIdent && r != nil {
		if w := f.heldBy[r]; w != nil {
			return w
		}
	}
	return r
}

// isPage reports whether t is the exchange page type (or a pointer to it).
func isPage(t types.Type) bool {
	path, name := typeName(t)
	return name == "Page" && pathHasSuffix(path, "exec")
}

// taintOf reports whether e evaluates to something holding page rows.
func (f *rowFlow) taintOf(e ast.Expr) (rowTaint, bool) {
	info := f.rr.pass.TypesInfo
	if tv, ok := info.Types[e]; !ok || !f.rr.rowish(tv.Type, 0) {
		return rowTaint{}, false
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		t, ok := f.taint[info.Uses[x]]
		return t, ok
	case *ast.SelectorExpr:
		sel, ok := info.Selections[x]
		if !ok || sel.Kind() != types.FieldVal {
			break
		}
		if x.Sel.Name == "Rows" && isPage(sel.Recv()) {
			return rowTaint{holder: f.holderOf(x.X)}, true
		}
		if fv, ok := sel.Obj().(*types.Var); ok && f.rr.heldFields[fv] {
			return rowTaint{holder: f.root(x)}, true
		}
	case *ast.IndexExpr:
		return f.taintOf(x.X)
	case *ast.SliceExpr:
		return f.taintOf(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return f.taintOf(x.X)
		}
	case *ast.CompositeLit:
		var parts []ast.Expr
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			parts = append(parts, el)
		}
		return f.union(parts)
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Row" {
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal && isPage(s.Recv()) {
				return rowTaint{holder: f.holderOf(sel.X)}, true
			}
		}
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return f.taintOf(x.Args[0]) // conversion
		}
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				args := x.Args
				if x.Ellipsis.IsValid() && len(args) > 1 {
					// append(dst, src...) copies src's elements: a row's
					// values are copies, only rows of rows carry rows.
					if s, ok := info.TypeOf(args[len(args)-1]).Underlying().(*types.Slice); ok && !f.rr.rowish(s.Elem(), 0) {
						args = args[:len(args)-1]
					}
				}
				return f.union(args)
			}
		}
		// Any other call returns storage of its own (Clone, copyRow); a
		// callee that keeps its argument is checked through its summary.
	}
	return rowTaint{}, false
}

// union merges the taint of several expressions.
func (f *rowFlow) union(es []ast.Expr) (rowTaint, bool) {
	var out rowTaint
	found := false
	for _, e := range es {
		t, ok := f.taintOf(e)
		if !ok {
			continue
		}
		if found && out.holder != t.holder {
			out.holder = nil
		} else if !found {
			out = t
		}
		found = true
	}
	return out, found
}
