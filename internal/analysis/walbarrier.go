package analysis

// walbarrier machine-checks the ARIES write-ahead rule the durability PR
// established by convention: in the engine's durability-aware paths, a page
// mutation must not reach disk-visible state before the WAL record that
// describes it. Concretely, every heap or page mutation in a package whose
// import path ends in "engine" must be covered by one of
//
//  1. the logging-callback protocol — Heap.InsertLogged/UpdateLogged/
//     DeleteLogged with a callback that appends to the WAL (the heap mutates
//     the page while pinned and reverts if the append fails, so the record
//     is durable-ordered before the mutation becomes visible);
//  2. a dominating WAL append — an Append/LogOp/AppendCLR call that executes
//     on every path before the mutation (the recovery undo shape: append the
//     CLR, then clear the slot);
//  3. the redo exemption — a function that takes a txn.Record (or a slice of
//     them) applies records that are already in the log by construction;
//     recovery replay must not re-append.
//
// Heap internals (package storage) are out of scope by design: the heap
// mutates first and logs from under the page latch, which is exactly the
// contract rule 1 relies on.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WalBarrier reports engine page mutations that no WAL append covers.
var WalBarrier = &Analyzer{
	Name: "walbarrier",
	Doc: "check that every page mutation in internal/engine is covered by a WAL append: " +
		"a logging callback, a dominating Append/LogOp, or a recovery-replay txn.Record parameter " +
		"(the ARIES write-ahead rule)",
	Run: runWalBarrier,
}

func runWalBarrier(pass *Pass) error {
	if !pathHasSuffix(pass.Pkg.Path(), "engine") {
		return nil
	}
	c := &walChecker{pass: pass}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if c.redoExempt(fd) {
				continue
			}
			c.checkBody(fd.Body)
		}
	}
	return nil
}

type walChecker struct {
	pass *Pass
	// logCallbacks are FuncLits passed as the log argument of a *Logged
	// call; their appends belong to the callback protocol, not to the
	// surrounding control flow, and their bodies are not separate mutation
	// scopes.
	logCallbacks map[*ast.FuncLit]bool
}

// redoExempt reports whether fd applies already-logged records: a parameter
// of type txn.Record or []txn.Record marks recovery replay/undo helpers.
func (c *walChecker) redoExempt(fd *ast.FuncDecl) bool {
	obj, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	params := obj.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		t := params.At(i).Type()
		if sl, ok := t.(*types.Slice); ok {
			t = sl.Elem()
		}
		if path, name := typeName(t); name == "Record" && pathHasSuffix(path, "txn") {
			return true
		}
	}
	return false
}

// walSite is one page-mutation call found in a function body.
type walSite struct {
	block  *Block
	ord    int // visit ordinal within block, for same-block ordering
	pos    token.Pos
	name   string   // "Heap.Insert", "Page.PutAt", ...
	logArg ast.Expr // the log callback of a *Logged call, nil otherwise
	logged bool     // true for the *Logged variants
}

// checkBody verifies every mutation in one function body (and, recursively,
// in nested closures that are not log callbacks).
func (c *walChecker) checkBody(body *ast.BlockStmt) {
	g := buildCFG(body)
	dom := g.dominators()
	if c.logCallbacks == nil {
		c.logCallbacks = make(map[*ast.FuncLit]bool)
	}

	var mutations []walSite
	appendsIn := make(map[*Block][]int)
	var nested []*ast.FuncLit

	for _, b := range g.RPO() {
		ord := 0
		for _, n := range b.Nodes {
			node, ok := n.(ast.Node)
			if !ok {
				continue
			}
			if rs, isRange := node.(*ast.RangeStmt); isRange {
				// The header's RangeStmt node stands for the per-iteration
				// key/value assignment only; X and the body have their own
				// blocks and must not be re-visited here.
				scanRangeVar := func(e ast.Expr) {
					if e == nil {
						return
					}
					ast.Inspect(e, func(x ast.Node) bool {
						call, ok := x.(*ast.CallExpr)
						if !ok {
							return true
						}
						ord++
						if c.isWalAppend(call) {
							appendsIn[b] = append(appendsIn[b], ord)
						}
						return true
					})
				}
				scanRangeVar(rs.Key)
				scanRangeVar(rs.Value)
				continue
			}
			ast.Inspect(node, func(x ast.Node) bool {
				if fl, ok := x.(*ast.FuncLit); ok {
					if !c.logCallbacks[fl] {
						nested = append(nested, fl)
					}
					return false
				}
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				ord++
				if c.isWalAppend(call) {
					appendsIn[b] = append(appendsIn[b], ord)
					return true
				}
				if site, ok := c.mutationCall(call); ok {
					site.block, site.ord = b, ord
					if fl, isLit := site.logArg.(*ast.FuncLit); isLit {
						c.logCallbacks[fl] = true
					}
					mutations = append(mutations, site)
				}
				return true
			})
		}
	}

	for _, m := range mutations {
		if m.logged && m.logArg != nil && !isNilIdent(m.logArg) {
			if fl, ok := m.logArg.(*ast.FuncLit); ok {
				if !c.containsAppend(fl.Body) {
					c.pass.Reportf(m.logArg.Pos(),
						"log callback passed to %s never appends a WAL record", m.name)
				}
				continue
			}
			// An opaque callback value: assume the caller wired a logging one.
			continue
		}
		// Unlogged mutation (raw method or nil callback): a WAL append must
		// execute on every path first — earlier in this block, or in a block
		// that strictly dominates it.
		covered := false
		for _, a := range appendsIn[m.block] {
			if a < m.ord {
				covered = true
				break
			}
		}
		if !covered {
			for d := range dom[m.block] {
				if d != m.block && len(appendsIn[d]) > 0 {
					covered = true
					break
				}
			}
		}
		if !covered {
			c.pass.Reportf(m.pos,
				"page mutation %s is not preceded by a WAL append on every path (WAL-before-data)", m.name)
		}
	}

	for _, fl := range nested {
		c.checkBody(fl.Body)
	}
}

// isWalAppend reports whether call appends a record to the write-ahead log.
func (c *walChecker) isWalAppend(call *ast.CallExpr) bool {
	info := c.pass.TypesInfo
	return isMethodCall(info, call, "txn", "Manager", "LogOp") ||
		isMethodCall(info, call, "txn", "Manager", "AppendCLR") ||
		isMethodCall(info, call, "txn", "WAL", "Append") ||
		isMethodCall(info, call, "txn", "DurableWAL", "Append")
}

// containsAppend reports whether any WAL append occurs under n.
func (c *walChecker) containsAppend(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok && c.isWalAppend(call) {
			found = true
		}
		return !found
	})
	return found
}

// mutationCall classifies call as a page mutation, returning its site.
func (c *walChecker) mutationCall(call *ast.CallExpr) (walSite, bool) {
	info := c.pass.TypesInfo
	for _, m := range [...]string{"Insert", "Delete"} {
		if isMethodCall(info, call, "storage", "Heap", m) {
			return walSite{pos: call.Pos(), name: "Heap." + m}, true
		}
	}
	for _, m := range [...]string{"InsertLogged", "UpdateLogged", "DeleteLogged"} {
		if isMethodCall(info, call, "storage", "Heap", m) {
			s := walSite{pos: call.Pos(), name: "Heap." + m, logged: true}
			if len(call.Args) > 0 {
				s.logArg = call.Args[len(call.Args)-1]
			}
			return s, true
		}
	}
	for _, m := range [...]string{"PutAt", "ClearAt"} {
		if isMethodCall(info, call, "storage", "Page", m) {
			return walSite{pos: call.Pos(), name: "Page." + m}, true
		}
	}
	return walSite{}, false
}
