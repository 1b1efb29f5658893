package sql

import (
	"fmt"

	"stagedb/internal/value"
)

// params.go implements `?` placeholder bookkeeping: counting the parameters a
// statement declares and substituting bound arguments into a statement
// without mutating it. Prepared statements cache a parsed AST (and, for
// SELECT, a bound plan) that is shared by every execution, so substitution
// always clones the expression spine it rewrites.

// CountParams returns the number of `?` placeholders in stmt.
func CountParams(stmt Statement) int {
	max := 0
	walkStatement(stmt, func(e Expr) {
		Walk(e, func(x Expr) bool {
			if ph, ok := x.(*Placeholder); ok && ph.Idx+1 > max {
				max = ph.Idx + 1
			}
			return true
		})
	})
	return max
}

// walkStatement visits every expression tree the statement holds.
func walkStatement(stmt Statement, fn func(Expr)) {
	mapStatement(stmt, func(e Expr) Expr {
		fn(e)
		return e
	})
}

// mapStatement returns stmt with every expression tree it holds replaced by
// f(tree), absent ones (a missing WHERE) included as nil: the one list of a
// statement's expression slots. Like mapChildren it is copy-on-write, and
// returns stmt itself when no tree changes.
func mapStatement(stmt Statement, f func(Expr) Expr) Statement {
	switch x := stmt.(type) {
	case *Insert:
		rows, changed := x.Rows, false
		for i, row := range x.Rows {
			if r, ch := mapSlots(row, exprSlot, f); ch {
				if !changed {
					rows, changed = append([][]Expr(nil), x.Rows...), true
				}
				rows[i] = r
			}
		}
		if changed {
			cp := *x
			cp.Rows = rows
			return &cp
		}
	case *Update:
		sets, ch := mapSlots(x.Sets, func(a *Assignment) *Expr { return &a.Value }, f)
		if where := f(x.Where); ch || where != x.Where {
			cp := *x
			cp.Sets, cp.Where = sets, where
			return &cp
		}
	case *Delete:
		if where := f(x.Where); where != x.Where {
			cp := *x
			cp.Where = where
			return &cp
		}
	case *Select:
		items, ch1 := mapSlots(x.Items, func(it *SelectItem) *Expr { return &it.Expr }, f)
		joins, ch2 := mapSlots(x.Joins, func(j *Join) *Expr { return &j.On }, f)
		where := f(x.Where)
		groups, ch3 := mapSlots(x.GroupBy, exprSlot, f)
		having := f(x.Having)
		order, ch4 := mapSlots(x.OrderBy, func(o *OrderItem) *Expr { return &o.Expr }, f)
		if ch1 || ch2 || ch3 || ch4 || where != x.Where || having != x.Having {
			cp := *x
			cp.Items, cp.Joins, cp.Where, cp.GroupBy, cp.Having, cp.OrderBy = items, joins, where, groups, having, order
			return &cp
		}
	}
	return stmt
}

// BindParams returns a copy of stmt with every `?` placeholder replaced by
// the matching argument as a literal. The input statement is not modified
// (prepared statements share their cached AST across executions). It is an
// error to bind the wrong number of arguments, or to bind arguments to a
// statement without placeholders.
func BindParams(stmt Statement, args []value.Value) (Statement, error) {
	n := CountParams(stmt)
	if n != len(args) {
		return nil, fmt.Errorf("sql: statement wants %d parameter(s), got %d", n, len(args))
	}
	if n == 0 {
		return stmt, nil
	}
	var bind func(Expr) Expr
	bind = func(e Expr) Expr {
		if ph, ok := e.(*Placeholder); ok {
			return &Literal{Val: args[ph.Idx]}
		}
		return mapChildren(e, bind)
	}
	return mapStatement(stmt, bind), nil
}
