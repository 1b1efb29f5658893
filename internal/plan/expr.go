// Package plan turns parsed SQL into typed, optimized query plans: it binds
// names against the catalog, folds constants, pushes predicates down, orders
// joins by estimated cardinality, and selects physical operators (sequential
// vs index scan; equi keys vs residual for the hash join).
package plan

import (
	"fmt"
	"slices"

	"stagedb/internal/value"
)

// ColInfo describes one output column of a plan node.
type ColInfo struct {
	// Table is the binding name (alias) the column came from; empty for
	// computed columns.
	Table string
	Name  string
	Type  value.Type
}

// Schema is an ordered list of output columns.
type Schema []ColInfo

// Find locates a column by (optional) table qualifier and name. It returns
// -1 when absent and -2 when ambiguous.
func (s Schema) Find(table, name string) int {
	found := -1
	for i, c := range s {
		if c.Name != name {
			continue
		}
		if table != "" && c.Table != table {
			continue
		}
		if found >= 0 {
			return -2
		}
		found = i
	}
	return found
}

// Expr is a bound scalar expression evaluated against a row.
type Expr interface {
	// Eval computes the expression over row.
	Eval(row value.Row) (value.Value, error)
	// Type reports the static result type.
	Type() value.Type
	// String renders for EXPLAIN output.
	String() string
}

// mapChildren returns e with every direct operand c replaced by f(c): the
// one list of each expression kind's operands. It is copy-on-write — a node
// whose operands all come back unchanged is returned as is, and nothing is
// allocated — so rewriting a shared tree clones only the spine above the
// nodes that change. Leaves (Column, Const, Param), nil and kinds defined
// outside this package come back unchanged.
func mapChildren(e Expr, f func(Expr) Expr) Expr {
	switch x := e.(type) {
	case *Binary:
		if l, r := f(x.L), f(x.R); l != x.L || r != x.R {
			return &Binary{Op: x.Op, L: l, R: r}
		}
	case *Not:
		if v := f(x.E); v != x.E {
			return &Not{E: v}
		}
	case *Neg:
		if v := f(x.E); v != x.E {
			return &Neg{E: v}
		}
	case *Between:
		if v, lo, hi := f(x.E), f(x.Lo), f(x.Hi); v != x.E || lo != x.Lo || hi != x.Hi {
			return &Between{E: v, Lo: lo, Hi: hi, Negate: x.Negate}
		}
	case *In:
		v := f(x.E)
		if list, changed := mapSlots(x.List, exprSlot, f); changed || v != x.E {
			return &In{E: v, List: list, Negate: x.Negate}
		}
	case *Like:
		if v, p := f(x.E), f(x.Pattern); v != x.E || p != x.Pattern {
			return &Like{E: v, Pattern: p, Negate: x.Negate}
		}
	case *IsNull:
		if v := f(x.E); v != x.E {
			return &IsNull{E: v, Negate: x.Negate}
		}
	}
	return e
}

// mapSlots maps f over the expression slot (picked by slot) of every
// element of a list, cloning the list only at its first changed slot.
func mapSlots[T any](in []T, slot func(*T) *Expr, f func(Expr) Expr) (out []T, changed bool) {
	out = in
	for i := range in {
		e := *slot(&in[i])
		if ne := f(e); ne != e {
			if !changed {
				out, changed = slices.Clone(in), true
			}
			*slot(&out[i]) = ne
		}
	}
	return out, changed
}

// exprSlot is mapSlots' slot for a plain expression list.
func exprSlot(e *Expr) *Expr { return e }

// Column references an output column of the child by position.
type Column struct {
	Idx  int
	Name string
	Typ  value.Type
}

// Eval implements Expr.
func (e *Column) Eval(row value.Row) (value.Value, error) {
	if e.Idx >= len(row) {
		return value.Value{}, fmt.Errorf("plan: column %d out of range (row width %d)", e.Idx, len(row))
	}
	return row[e.Idx], nil
}

// Type implements Expr.
func (e *Column) Type() value.Type { return e.Typ }

func (e *Column) String() string { return fmt.Sprintf("%s#%d", e.Name, e.Idx) }

// Const is a literal.
type Const struct{ Val value.Value }

// Eval implements Expr.
func (e *Const) Eval(value.Row) (value.Value, error) { return e.Val, nil }

// Type implements Expr.
func (e *Const) Type() value.Type { return e.Val.Type() }

func (e *Const) String() string { return e.Val.String() }

// Binary applies an arithmetic, comparison, or boolean operator.
type Binary struct {
	Op   string // AND OR = != < <= > >= + - * / %
	L, R Expr
}

// Eval implements Expr.
func (e *Binary) Eval(row value.Row) (value.Value, error) {
	switch e.Op {
	case "AND", "OR":
		l, err := e.L.Eval(row)
		if err != nil {
			return value.Value{}, err
		}
		// SQL three-valued logic collapsed to two: NULL is false.
		lb := !l.IsNull() && l.Type() == value.Bool && l.Bool()
		if e.Op == "AND" && !lb {
			return value.NewBool(false), nil
		}
		if e.Op == "OR" && lb {
			return value.NewBool(true), nil
		}
		r, err := e.R.Eval(row)
		if err != nil {
			return value.Value{}, err
		}
		rb := !r.IsNull() && r.Type() == value.Bool && r.Bool()
		return value.NewBool(rb), nil
	}
	l, err := e.L.Eval(row)
	if err != nil {
		return value.Value{}, err
	}
	r, err := e.R.Eval(row)
	if err != nil {
		return value.Value{}, err
	}
	switch e.Op {
	case "+", "-", "*", "/", "%":
		return value.Arith(e.Op[0], l, r)
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return value.NewBool(false), nil
		}
		c, err := value.Compare(l, r)
		if err != nil {
			return value.Value{}, err
		}
		var out bool
		switch e.Op {
		case "=":
			out = c == 0
		case "!=":
			out = c != 0
		case "<":
			out = c < 0
		case "<=":
			out = c <= 0
		case ">":
			out = c > 0
		case ">=":
			out = c >= 0
		}
		return value.NewBool(out), nil
	}
	return value.Value{}, fmt.Errorf("plan: unknown operator %q", e.Op)
}

// Type implements Expr.
func (e *Binary) Type() value.Type {
	switch e.Op {
	case "AND", "OR", "=", "!=", "<", "<=", ">", ">=":
		return value.Bool
	}
	lt, rt := e.L.Type(), e.R.Type()
	if lt == value.Float || rt == value.Float {
		return value.Float
	}
	if lt == value.Text {
		return value.Text
	}
	return value.Int
}

func (e *Binary) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

// Not negates a boolean expression (NULL -> true per collapsed logic: NOT
// of an unknown filter keeps SQL's behaviour of excluding the row from the
// positive branch; we treat NULL operand as false, so NOT false = true).
type Not struct{ E Expr }

// Eval implements Expr.
func (e *Not) Eval(row value.Row) (value.Value, error) {
	v, err := e.E.Eval(row)
	if err != nil {
		return value.Value{}, err
	}
	b := !v.IsNull() && v.Type() == value.Bool && v.Bool()
	return value.NewBool(!b), nil
}

// Type implements Expr.
func (e *Not) Type() value.Type { return value.Bool }

func (e *Not) String() string { return "NOT " + e.E.String() }

// Neg is unary numeric negation.
type Neg struct{ E Expr }

// Eval implements Expr.
func (e *Neg) Eval(row value.Row) (value.Value, error) {
	v, err := e.E.Eval(row)
	if err != nil || v.IsNull() {
		return v, err
	}
	return value.Arith('-', value.NewInt(0), v)
}

// Type implements Expr.
func (e *Neg) Type() value.Type { return e.E.Type() }

func (e *Neg) String() string { return "-" + e.E.String() }

// Between is e BETWEEN lo AND hi.
type Between struct {
	E, Lo, Hi Expr
	Negate    bool
}

// Eval implements Expr.
func (e *Between) Eval(row value.Row) (value.Value, error) {
	v, err := e.E.Eval(row)
	if err != nil {
		return value.Value{}, err
	}
	lo, err := e.Lo.Eval(row)
	if err != nil {
		return value.Value{}, err
	}
	hi, err := e.Hi.Eval(row)
	if err != nil {
		return value.Value{}, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return value.NewBool(e.Negate), nil
	}
	c1, err := value.Compare(v, lo)
	if err != nil {
		return value.Value{}, err
	}
	c2, err := value.Compare(v, hi)
	if err != nil {
		return value.Value{}, err
	}
	in := c1 >= 0 && c2 <= 0
	return value.NewBool(in != e.Negate), nil
}

// Type implements Expr.
func (e *Between) Type() value.Type { return value.Bool }

func (e *Between) String() string {
	return e.E.String() + " BETWEEN " + e.Lo.String() + " AND " + e.Hi.String()
}

// In is e IN (list).
type In struct {
	E      Expr
	List   []Expr
	Negate bool
}

// Eval implements Expr.
func (e *In) Eval(row value.Row) (value.Value, error) {
	v, err := e.E.Eval(row)
	if err != nil {
		return value.Value{}, err
	}
	if v.IsNull() {
		return value.NewBool(e.Negate), nil
	}
	for _, item := range e.List {
		iv, err := item.Eval(row)
		if err != nil {
			return value.Value{}, err
		}
		if value.Equal(v, iv) {
			return value.NewBool(!e.Negate), nil
		}
	}
	return value.NewBool(e.Negate), nil
}

// Type implements Expr.
func (e *In) Type() value.Type { return value.Bool }

func (e *In) String() string { return e.E.String() + " IN (...)" }

// Like is e LIKE pattern.
type Like struct {
	E, Pattern Expr
	Negate     bool
}

// Eval implements Expr.
func (e *Like) Eval(row value.Row) (value.Value, error) {
	v, err := e.E.Eval(row)
	if err != nil {
		return value.Value{}, err
	}
	p, err := e.Pattern.Eval(row)
	if err != nil {
		return value.Value{}, err
	}
	if v.IsNull() || p.IsNull() {
		return value.NewBool(e.Negate), nil
	}
	if v.Type() != value.Text || p.Type() != value.Text {
		return value.Value{}, fmt.Errorf("plan: LIKE requires text operands")
	}
	return value.NewBool(value.Like(v.Text(), p.Text()) != e.Negate), nil
}

// Type implements Expr.
func (e *Like) Type() value.Type { return value.Bool }

func (e *Like) String() string { return e.E.String() + " LIKE " + e.Pattern.String() }

// IsNull is e IS [NOT] NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

// Eval implements Expr.
func (e *IsNull) Eval(row value.Row) (value.Value, error) {
	v, err := e.E.Eval(row)
	if err != nil {
		return value.Value{}, err
	}
	return value.NewBool(v.IsNull() != e.Negate), nil
}

// Type implements Expr.
func (e *IsNull) Type() value.Type { return value.Bool }

func (e *IsNull) String() string {
	if e.Negate {
		return e.E.String() + " IS NOT NULL"
	}
	return e.E.String() + " IS NULL"
}

// AggKind enumerates aggregate functions.
type AggKind int

// Aggregate functions.
const (
	AggCount AggKind = iota
	AggCountStar
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "COUNT"
	case AggCountStar:
		return "COUNT(*)"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return fmt.Sprintf("AggKind(%d)", int(k))
}

// AggSpec is one aggregate computed by an Aggregate node.
type AggSpec struct {
	Kind AggKind
	Arg  Expr // nil for COUNT(*)
}

// ResultType reports the aggregate's output type.
func (a AggSpec) ResultType() value.Type {
	switch a.Kind {
	case AggCount, AggCountStar:
		return value.Int
	case AggAvg:
		return value.Float
	case AggSum:
		if a.Arg != nil && a.Arg.Type() == value.Float {
			return value.Float
		}
		return value.Int
	default:
		if a.Arg != nil {
			return a.Arg.Type()
		}
		return value.Null
	}
}

// EvalPredicate evaluates e as a filter: NULL and non-bool results are false.
func EvalPredicate(e Expr, row value.Row) (bool, error) {
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Type() == value.Bool && v.Bool(), nil
}
