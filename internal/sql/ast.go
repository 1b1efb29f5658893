package sql

import (
	"fmt"
	"slices"
	"strings"

	"stagedb/internal/value"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	// String renders the statement back to SQL-ish text for diagnostics.
	String() string
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       value.Type
	PrimaryKey bool
}

// CreateTable is CREATE TABLE name (col type [PRIMARY KEY], ...).
type CreateTable struct {
	Name    string
	Columns []ColumnDef
}

func (*CreateTable) stmt() {}

func (s *CreateTable) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = c.Name + " " + c.Type.String()
		if c.PrimaryKey {
			parts[i] += " PRIMARY KEY"
		}
	}
	return "CREATE TABLE " + s.Name + " (" + strings.Join(parts, ", ") + ")"
}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

func (*DropTable) stmt()            {}
func (s *DropTable) String() string { return "DROP TABLE " + s.Name }

// CreateIndex is CREATE INDEX name ON table (column).
type CreateIndex struct {
	Name   string
	Table  string
	Column string
}

func (*CreateIndex) stmt() {}
func (s *CreateIndex) String() string {
	return "CREATE INDEX " + s.Name + " ON " + s.Table + " (" + s.Column + ")"
}

// Insert is INSERT INTO table [(cols)] VALUES (...), (...).
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

func (*Insert) stmt() {}
func (s *Insert) String() string {
	return fmt.Sprintf("INSERT INTO %s (%d rows)", s.Table, len(s.Rows))
}

// Assignment is one SET clause of UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// Update is UPDATE table SET ... [WHERE ...].
type Update struct {
	Table string
	Sets  []Assignment
	Where Expr
}

func (*Update) stmt()            {}
func (s *Update) String() string { return "UPDATE " + s.Table }

// Delete is DELETE FROM table [WHERE ...].
type Delete struct {
	Table string
	Where Expr
}

func (*Delete) stmt()            {}
func (s *Delete) String() string { return "DELETE FROM " + s.Table }

// TableRef names a base table with an optional alias.
type TableRef struct {
	Table string
	Alias string // empty when none
}

// Name returns the alias when present, else the table name.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// Join is one JOIN clause.
type Join struct {
	Table TableRef
	On    Expr
}

// SelectItem is one projection: an expression with an optional alias, or *.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
	// Position marks a key written as an integer literal (ORDER BY 2):
	// it names an output column. A bound `?` never does.
	Position bool
}

// Select is a SELECT query.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // comma-list; cross product before Where
	Joins    []Join     // explicit JOIN ... ON ...
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Offset   int // 0 when absent
}

func (*Select) stmt() {}
func (s *Select) String() string {
	var names []string
	for _, t := range s.From {
		names = append(names, t.Name())
	}
	return "SELECT FROM " + strings.Join(names, ", ")
}

// Begin, Commit and Rollback control transactions.
type (
	// Begin starts a transaction.
	Begin struct{}
	// Commit commits the current transaction.
	Commit struct{}
	// Rollback aborts the current transaction.
	Rollback struct{}
)

func (*Begin) stmt()             {}
func (*Begin) String() string    { return "BEGIN" }
func (*Commit) stmt()            {}
func (*Commit) String() string   { return "COMMIT" }
func (*Rollback) stmt()          {}
func (*Rollback) String() string { return "ROLLBACK" }

// Expr is any scalar expression.
type Expr interface {
	expr()
	String() string
}

// Literal is a constant value.
type Literal struct{ Val value.Value }

func (*Literal) expr()            {}
func (e *Literal) String() string { return e.Val.String() }

// Placeholder is one `?` parameter marker. Idx is the zero-based ordinal in
// parse order; BindParams substitutes the matching argument before the
// statement executes, and prepared statements keep the placeholder in the
// cached AST/plan until execution time.
type Placeholder struct{ Idx int }

func (*Placeholder) expr()            {}
func (e *Placeholder) String() string { return "?" }

// ColumnRef names a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table string // empty when unqualified
	Name  string
}

func (*ColumnRef) expr() {}
func (e *ColumnRef) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Name
	}
	return e.Name
}

// Binary applies an infix operator: AND OR = != < <= > >= + - * / %.
type Binary struct {
	Op   string
	L, R Expr
}

func (*Binary) expr() {}
func (e *Binary) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

// Unary applies NOT or numeric negation.
type Unary struct {
	Op string // "NOT" or "-"
	E  Expr
}

func (*Unary) expr()            {}
func (e *Unary) String() string { return e.Op + " " + e.E.String() }

// Call is an aggregate or scalar function call.
type Call struct {
	Name string // upper-cased
	Star bool   // COUNT(*)
	Args []Expr
}

func (*Call) expr() {}
func (e *Call) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}

// Between is expr [NOT] BETWEEN lo AND hi.
type Between struct {
	E, Lo, Hi Expr
	Not       bool
}

func (*Between) expr() {}
func (e *Between) String() string {
	op := " BETWEEN "
	if e.Not {
		op = " NOT BETWEEN "
	}
	return e.E.String() + op + e.Lo.String() + " AND " + e.Hi.String()
}

// InList is expr [NOT] IN (v1, v2, ...).
type InList struct {
	E    Expr
	List []Expr
	Not  bool
}

func (*InList) expr() {}
func (e *InList) String() string {
	items := make([]string, len(e.List))
	for i, x := range e.List {
		items[i] = x.String()
	}
	op := " IN ("
	if e.Not {
		op = " NOT IN ("
	}
	return e.E.String() + op + strings.Join(items, ", ") + ")"
}

// LikeExpr is expr [NOT] LIKE pattern.
type LikeExpr struct {
	E, Pattern Expr
	Not        bool
}

func (*LikeExpr) expr() {}
func (e *LikeExpr) String() string {
	op := " LIKE "
	if e.Not {
		op = " NOT LIKE "
	}
	return e.E.String() + op + e.Pattern.String()
}

// IsNull is expr IS [NOT] NULL.
type IsNull struct {
	E   Expr
	Not bool
}

func (*IsNull) expr() {}
func (e *IsNull) String() string {
	if e.Not {
		return e.E.String() + " IS NOT NULL"
	}
	return e.E.String() + " IS NULL"
}

// Walk visits e and all sub-expressions in depth-first order, calling fn for
// each; fn returning false prunes the subtree.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	mapChildren(e, func(c Expr) Expr {
		Walk(c, fn)
		return c
	})
}

// mapChildren returns e with every direct sub-expression c replaced by f(c):
// the one list of each expression kind's children. It is copy-on-write — a
// node whose children all come back unchanged is returned as is, and nothing
// is allocated — so rewriting a shared tree clones only the spine above the
// nodes that change. Leaves, and nil, come back unchanged.
func mapChildren(e Expr, f func(Expr) Expr) Expr {
	switch x := e.(type) {
	case *Binary:
		if l, r := f(x.L), f(x.R); l != x.L || r != x.R {
			return &Binary{Op: x.Op, L: l, R: r}
		}
	case *Unary:
		if v := f(x.E); v != x.E {
			return &Unary{Op: x.Op, E: v}
		}
	case *Call:
		if args, changed := mapSlots(x.Args, exprSlot, f); changed {
			return &Call{Name: x.Name, Star: x.Star, Args: args}
		}
	case *Between:
		if v, lo, hi := f(x.E), f(x.Lo), f(x.Hi); v != x.E || lo != x.Lo || hi != x.Hi {
			return &Between{E: v, Lo: lo, Hi: hi, Not: x.Not}
		}
	case *InList:
		v := f(x.E)
		if list, changed := mapSlots(x.List, exprSlot, f); changed || v != x.E {
			return &InList{E: v, List: list, Not: x.Not}
		}
	case *LikeExpr:
		if v, p := f(x.E), f(x.Pattern); v != x.E || p != x.Pattern {
			return &LikeExpr{E: v, Pattern: p, Not: x.Not}
		}
	case *IsNull:
		if v := f(x.E); v != x.E {
			return &IsNull{E: v, Not: x.Not}
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

// IsAggregate reports whether the call name is an aggregate function.
func IsAggregate(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// HasAggregate reports whether e contains an aggregate call.
func HasAggregate(e Expr) bool {
	found := false
	Walk(e, func(x Expr) bool {
		if c, ok := x.(*Call); ok && IsAggregate(c.Name) {
			found = true
			return false
		}
		return true
	})
	return found
}
