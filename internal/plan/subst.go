package plan

// subst.go supports the prepared-statement path: a SELECT planned once with
// `?` placeholders keeps Param expressions in its cached plan, and every
// execution stamps out a private copy of the plan with the bound arguments
// substituted as constants. The cached plan is shared by concurrent
// executions, so substitution never mutates it: nodes and expressions on a
// rewritten path are cloned, parameter-free subtrees are shared.

import (
	"fmt"

	"stagedb/internal/value"
)

// Param is a bound `?` placeholder: the Idx-th statement parameter. Plans
// holding Params cannot execute directly — Substitute replaces them with the
// execution's arguments first.
type Param struct{ Idx int }

// Eval implements Expr. A Param surviving to execution is a caller bug
// (Substitute was skipped or the argument list was short).
func (e *Param) Eval(value.Row) (value.Value, error) {
	return value.Value{}, fmt.Errorf("plan: parameter $%d is not bound", e.Idx+1)
}

// Type implements Expr. Parameter types are unknown until execution.
func (e *Param) Type() value.Type { return value.Null }

func (e *Param) String() string { return fmt.Sprintf("$%d", e.Idx+1) }

// Substitute returns a copy of the plan with every Param replaced by the
// matching argument as a constant. Parameter-free plans are returned as-is.
func Substitute(n Node, args []value.Value) (Node, error) {
	var err error
	var expr func(Expr) Expr
	expr = func(e Expr) Expr {
		p, ok := e.(*Param)
		if !ok {
			return mapChildren(e, expr)
		}
		if p.Idx >= len(args) {
			err = fmt.Errorf("plan: parameter $%d is not bound (%d argument(s) given)", p.Idx+1, len(args))
			return e
		}
		return &Const{Val: args[p.Idx]}
	}
	var node func(Node) Node
	node = func(n Node) Node { return mapNode(n, node, expr) }
	out := node(n)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// nodeExprs lists every expression a node evaluates, nil entries included
// (an absent filter, COUNT(*)'s argument), in mapNode's slot order. The
// required-columns pass reads it.
func nodeExprs(n Node) []Expr {
	var out []Expr
	mapNode(n, func(c Node) Node { return c }, func(e Expr) Expr {
		out = append(out, e)
		return e
	})
	return out
}

// mapNode returns n with every child c replaced by child(c) and every
// expression slot e by f(e), absent ones (nil) included: the one list of
// each node kind's expression slots. Join keys are positions, not
// expressions, and are not slots. Like mapChildren it is copy-on-write: a
// node whose children and slots all come back unchanged is returned as is,
// with nothing allocated. A node kind it does not know comes back as is,
// its children unvisited.
func mapNode(n Node, child func(Node) Node, f func(Expr) Expr) Node {
	switch x := n.(type) {
	case *SeqScan:
		if fl := f(x.Filter); fl != x.Filter {
			cp := *x
			cp.Filter = fl
			return &cp
		}
	case *IndexScan:
		if fl, lo, hi := f(x.Filter), f(x.LoExpr), f(x.HiExpr); fl != x.Filter || lo != x.LoExpr || hi != x.HiExpr {
			cp := *x
			cp.Filter, cp.LoExpr, cp.HiExpr = fl, lo, hi
			return &cp
		}
	case *Filter:
		if c, p := child(x.Child), f(x.Pred); c != x.Child || p != x.Pred {
			cp := *x
			cp.Child, cp.Pred = c, p
			return &cp
		}
	case *Project:
		c := child(x.Child)
		if exprs, changed := mapSlots(x.Exprs, exprSlot, f); changed || c != x.Child {
			cp := *x
			cp.Child, cp.Exprs = c, exprs
			return &cp
		}
	case *Join:
		if l, r, res := child(x.L), child(x.R), f(x.Residual); l != x.L || r != x.R || res != x.Residual {
			cp := *x
			cp.L, cp.R, cp.Residual = l, r, res
			return &cp
		}
	case *Aggregate:
		c := child(x.Child)
		groups, gch := mapSlots(x.GroupBy, exprSlot, f)
		aggs, ach := mapSlots(x.Aggs, func(a *AggSpec) *Expr { return &a.Arg }, f)
		if gch || ach || c != x.Child {
			cp := *x
			cp.Child, cp.GroupBy, cp.Aggs = c, groups, aggs
			return &cp
		}
	case *Sort:
		c := child(x.Child)
		if keys, changed := mapSlots(x.Keys, keySlot, f); changed || c != x.Child {
			cp := *x
			cp.Child, cp.Keys = c, keys
			return &cp
		}
	case *TopN:
		c := child(x.Child)
		if keys, changed := mapSlots(x.Keys, keySlot, f); changed || c != x.Child {
			cp := *x
			cp.Child, cp.Keys = c, keys
			return &cp
		}
	case *Limit:
		if c := child(x.Child); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
	}
	return n
}

// keySlot is mapSlots' slot for a sort key list.
func keySlot(k *SortKey) *Expr { return &k.Expr }
