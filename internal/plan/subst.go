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
	s := &paramSubst{args: args}
	out := s.node(n)
	if s.err != nil {
		return nil, s.err
	}
	return out, nil
}

// nodeExprs lists every expression a node evaluates, nil entries included
// (an absent filter, COUNT(*)'s argument). Join keys are positions, not
// expressions, and are not listed. The required-columns pass reads it, and
// the substitution test uses it as an oracle for Substitute's coverage.
func nodeExprs(n Node) []Expr {
	switch x := n.(type) {
	case *SeqScan:
		return []Expr{x.Filter}
	case *IndexScan:
		return []Expr{x.Filter, x.LoExpr, x.HiExpr}
	case *Filter:
		return []Expr{x.Pred}
	case *Project:
		return x.Exprs
	case *Join:
		return []Expr{x.Residual}
	case *Aggregate:
		out := append([]Expr(nil), x.GroupBy...)
		for _, a := range x.Aggs {
			out = append(out, a.Arg)
		}
		return out
	case *Sort:
		out := make([]Expr, len(x.Keys))
		for i, k := range x.Keys {
			out[i] = k.Expr
		}
		return out
	case *TopN:
		out := make([]Expr, len(x.Keys))
		for i, k := range x.Keys {
			out[i] = k.Expr
		}
		return out
	}
	return nil
}

type paramSubst struct {
	args []value.Value
	err  error
}

func (s *paramSubst) node(n Node) Node {
	switch x := n.(type) {
	case *SeqScan:
		f := s.expr(x.Filter)
		if f == x.Filter {
			return x
		}
		cp := *x
		cp.Filter = f
		return &cp
	case *IndexScan:
		f, lo, hi := s.expr(x.Filter), s.expr(x.LoExpr), s.expr(x.HiExpr)
		if f == x.Filter && lo == x.LoExpr && hi == x.HiExpr {
			return x
		}
		cp := *x
		cp.Filter, cp.LoExpr, cp.HiExpr = f, lo, hi
		return &cp
	case *Filter:
		child, pred := s.node(x.Child), s.expr(x.Pred)
		if child == x.Child && pred == x.Pred {
			return x
		}
		cp := *x
		cp.Child, cp.Pred = child, pred
		return &cp
	case *Project:
		child := s.node(x.Child)
		exprs, changed := s.exprs(x.Exprs)
		if child == x.Child && !changed {
			return x
		}
		cp := *x
		cp.Child, cp.Exprs = child, exprs
		return &cp
	case *Join:
		l, r, resid := s.node(x.L), s.node(x.R), s.expr(x.Residual)
		if l == x.L && r == x.R && resid == x.Residual {
			return x
		}
		cp := *x
		cp.L, cp.R, cp.Residual = l, r, resid
		return &cp
	case *Aggregate:
		child := s.node(x.Child)
		groups, gchanged := s.exprs(x.GroupBy)
		aggs := x.Aggs
		achanged := false
		for i, a := range x.Aggs {
			arg := s.expr(a.Arg)
			if arg != a.Arg {
				if !achanged {
					aggs = append([]AggSpec(nil), x.Aggs...)
					achanged = true
				}
				aggs[i].Arg = arg
			}
		}
		if child == x.Child && !gchanged && !achanged {
			return x
		}
		cp := *x
		cp.Child, cp.GroupBy, cp.Aggs = child, groups, aggs
		return &cp
	case *Sort:
		child := s.node(x.Child)
		keys, changed := s.sortKeys(x.Keys)
		if child == x.Child && !changed {
			return x
		}
		cp := *x
		cp.Child, cp.Keys = child, keys
		return &cp
	case *TopN:
		child := s.node(x.Child)
		keys, changed := s.sortKeys(x.Keys)
		if child == x.Child && !changed {
			return x
		}
		cp := *x
		cp.Child, cp.Keys = child, keys
		return &cp
	case *Limit:
		child := s.node(x.Child)
		if child == x.Child {
			return x
		}
		cp := *x
		cp.Child = child
		return &cp
	}
	return n
}

// sortKeys substitutes a key list, cloning it only when a key changed.
func (s *paramSubst) sortKeys(in []SortKey) ([]SortKey, bool) {
	out := in
	changed := false
	for i, k := range in {
		e := s.expr(k.Expr)
		if e != k.Expr {
			if !changed {
				out = append([]SortKey(nil), in...)
				changed = true
			}
			out[i].Expr = e
		}
	}
	return out, changed
}

func (s *paramSubst) exprs(in []Expr) ([]Expr, bool) {
	out := in
	changed := false
	for i, e := range in {
		ne := s.expr(e)
		if ne != e {
			if !changed {
				out = append([]Expr(nil), in...)
				changed = true
			}
			out[i] = ne
		}
	}
	return out, changed
}

func (s *paramSubst) expr(e Expr) Expr {
	if e == nil || s.err != nil {
		return e
	}
	switch x := e.(type) {
	case *Param:
		if x.Idx >= len(s.args) {
			s.err = fmt.Errorf("plan: parameter $%d is not bound (%d argument(s) given)", x.Idx+1, len(s.args))
			return e
		}
		return &Const{Val: s.args[x.Idx]}
	case *Binary:
		l, r := s.expr(x.L), s.expr(x.R)
		if l == x.L && r == x.R {
			return x
		}
		return &Binary{Op: x.Op, L: l, R: r}
	case *Not:
		inner := s.expr(x.E)
		if inner == x.E {
			return x
		}
		return &Not{E: inner}
	case *Neg:
		inner := s.expr(x.E)
		if inner == x.E {
			return x
		}
		return &Neg{E: inner}
	case *Between:
		v, lo, hi := s.expr(x.E), s.expr(x.Lo), s.expr(x.Hi)
		if v == x.E && lo == x.Lo && hi == x.Hi {
			return x
		}
		return &Between{E: v, Lo: lo, Hi: hi, Negate: x.Negate}
	case *In:
		v := s.expr(x.E)
		list, changed := s.exprs(x.List)
		if v == x.E && !changed {
			return x
		}
		return &In{E: v, List: list, Negate: x.Negate}
	case *Like:
		v, p := s.expr(x.E), s.expr(x.Pattern)
		if v == x.E && p == x.Pattern {
			return x
		}
		return &Like{E: v, Pattern: p, Negate: x.Negate}
	case *IsNull:
		v := s.expr(x.E)
		if v == x.E {
			return x
		}
		return &IsNull{E: v, Negate: x.Negate}
	}
	return e
}
