package plan

import (
	"fmt"
	"strings"

	"stagedb/internal/catalog"
	"stagedb/internal/value"
)

// Node is a physical plan operator. Plans are trees of Nodes executed by
// internal/exec (either pull-based or staged).
type Node interface {
	// Schema describes the node's output columns.
	Schema() Schema
	// Children returns input nodes (nil for leaves).
	Children() []Node
	// Rows estimates output cardinality for costing and EXPLAIN.
	Rows() float64
	// String is the EXPLAIN row for this node.
	String() string
}

// SeqScan reads a table heap sequentially, applying an optional pushed-down
// filter.
type SeqScan struct {
	Table   *catalog.Table
	Binding string // alias the query used
	Filter  Expr   // may be nil
	// Cols marks the table columns the plan reads from this scan — its own
	// Filter included — one entry per table column. The scan decodes only
	// those and leaves the rest NULL in a full-width row. nil = all columns.
	Cols []bool
	Est  float64
	out  Schema
}

// Schema implements Node.
func (n *SeqScan) Schema() Schema { return n.out }

// Children implements Node.
func (n *SeqScan) Children() []Node { return nil }

// Rows implements Node.
func (n *SeqScan) Rows() float64 { return n.Est }

func (n *SeqScan) String() string {
	s := fmt.Sprintf("SeqScan %s", n.Binding)
	if n.Filter != nil {
		s += " filter=" + n.Filter.String()
	}
	return s + colsString(n.Table, n.Cols)
}

// IndexScan reads a table through a B+tree index over [Lo, Hi] (NULL bound =
// open), applying an optional residual filter. A prepared statement whose
// bound is a `?` parameter carries it as LoExpr/HiExpr instead: the bound
// resolves when the execution builds its operators, after parameter
// substitution — so prepared point and range queries keep their index access
// even though the plan is built before the arguments exist.
type IndexScan struct {
	Table   *catalog.Table
	Binding string
	Index   *catalog.Index
	Lo, Hi  value.Value
	// LoExpr/HiExpr, when non-nil, override Lo/Hi with a constant-foldable
	// expression (a Const or a Param awaiting substitution).
	LoExpr, HiExpr Expr
	Filter         Expr
	// Cols is the decoded column set, as on SeqScan. The index key column is
	// in it only if the plan reads it: the key range is the B+tree's work.
	Cols []bool
	Est  float64
	out  Schema
}

// Bounds resolves the scan's effective [lo, hi] key range, evaluating any
// expression bounds (which must be parameter-free by execution time).
func (n *IndexScan) Bounds() (lo, hi value.Value, err error) {
	lo, hi = n.Lo, n.Hi
	if n.LoExpr != nil {
		lo, err = n.LoExpr.Eval(nil)
		if err != nil {
			return lo, hi, err
		}
	}
	if n.HiExpr != nil {
		hi, err = n.HiExpr.Eval(nil)
	}
	return lo, hi, err
}

// PointProbe reports whether n is a point read: an IndexScan over one
// non-NULL key of a unique index, under nothing but Project, Filter and
// Limit — no join, aggregate, sort or sequential scan. Such a plan reads at
// most one row, so its shape and estimate cannot depend on the key's value:
// a generic plan serves every execution, and the work is too small to be
// worth an operator pipeline (§4.1's stage granularity). An unbound `col =
// ?` counts (one Param on both sides of the range); `BETWEEN ? AND ?` counts
// only once its two bounds are bound to equal values. Bounds are compared by
// value, not identity: Substitute turns each side into its own Const.
func PointProbe(n Node) bool {
	for {
		switch x := n.(type) {
		case *Project:
			n = x.Child
		case *Filter:
			n = x.Child
		case *Limit:
			n = x.Child
		case *IndexScan:
			return x.Index.Unique && x.pointKey()
		default:
			return false
		}
	}
}

// pointKey reports whether the scan's range is a single key.
func (n *IndexScan) pointKey() bool {
	lo, lok := boundValue(n.Lo, n.LoExpr)
	hi, hok := boundValue(n.Hi, n.HiExpr)
	if lok && hok {
		return value.Equal(lo, hi)
	}
	lp, lok := n.LoExpr.(*Param)
	hp, hok := n.HiExpr.(*Param)
	return lok && hok && lp.Idx == hp.Idx
}

// boundValue resolves a range bound that is already a value: the literal
// bound, or a Const expression overriding it.
func boundValue(v value.Value, e Expr) (value.Value, bool) {
	switch x := e.(type) {
	case nil:
		return v, true
	case *Const:
		return x.Val, true
	}
	return value.Value{}, false
}

// Schema implements Node.
func (n *IndexScan) Schema() Schema { return n.out }

// Children implements Node.
func (n *IndexScan) Children() []Node { return nil }

// Rows implements Node.
func (n *IndexScan) Rows() float64 { return n.Est }

func (n *IndexScan) String() string {
	lo, hi := n.Lo.String(), n.Hi.String()
	if n.LoExpr != nil {
		lo = n.LoExpr.String()
	}
	if n.HiExpr != nil {
		hi = n.HiExpr.String()
	}
	s := fmt.Sprintf("IndexScan %s via %s [%s, %s]", n.Binding, n.Index.Name, lo, hi)
	if n.Filter != nil {
		s += " filter=" + n.Filter.String()
	}
	return s + colsString(n.Table, n.Cols)
}

// colsString renders a scan's decoded column subset for EXPLAIN: " cols=[a
// c]", or nothing when the scan decodes every column.
func colsString(t *catalog.Table, cols []bool) string {
	if cols == nil {
		return ""
	}
	var names []string
	for i, c := range cols {
		if c {
			names = append(names, t.Schema.Columns[i].Name)
		}
	}
	return " cols=[" + strings.Join(names, " ") + "]"
}

// scanSchema builds the output schema of a table scan.
func scanSchema(t *catalog.Table, binding string) Schema {
	out := make(Schema, len(t.Schema.Columns))
	for i, c := range t.Schema.Columns {
		out[i] = ColInfo{Table: binding, Name: c.Name, Type: c.Type}
	}
	return out
}

// Join combines two inputs; the join stage runs every Join as a hash join
// building on R (§4.3). Equi-key joins set LeftKeys/RightKeys (positions in
// each side's schema); a join without them pairs every row of L with every
// row of R. Residual holds any extra condition evaluated on the concatenated
// row.
type Join struct {
	L, R     Node
	LeftKeys []int
	RightKey []int
	Residual Expr
	Est      float64
	out      Schema
}

// Schema implements Node.
func (n *Join) Schema() Schema { return n.out }

// Children implements Node.
func (n *Join) Children() []Node { return []Node{n.L, n.R} }

// Rows implements Node.
func (n *Join) Rows() float64 { return n.Est }

func (n *Join) String() string {
	s := "HashJoin"
	if len(n.LeftKeys) > 0 {
		s += fmt.Sprintf(" keys=%v=%v", n.LeftKeys, n.RightKey)
	}
	if n.Residual != nil {
		s += " residual=" + n.Residual.String()
	}
	return s
}

// Filter drops rows failing Pred.
type Filter struct {
	Child Node
	Pred  Expr
	Est   float64
}

// Schema implements Node.
func (n *Filter) Schema() Schema { return n.Child.Schema() }

// Children implements Node.
func (n *Filter) Children() []Node { return []Node{n.Child} }

// Rows implements Node.
func (n *Filter) Rows() float64 { return n.Est }

func (n *Filter) String() string { return "Filter " + n.Pred.String() }

// Project computes output expressions.
type Project struct {
	Child Node
	Exprs []Expr
	out   Schema
}

// Schema implements Node.
func (n *Project) Schema() Schema { return n.out }

// Children implements Node.
func (n *Project) Children() []Node { return []Node{n.Child} }

// Rows implements Node.
func (n *Project) Rows() float64 { return n.Child.Rows() }

func (n *Project) String() string {
	parts := make([]string, len(n.Exprs))
	for i, e := range n.Exprs {
		parts[i] = e.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// Aggregate groups by GroupBy expressions and computes Aggs. Output schema
// is group columns followed by aggregate results.
type Aggregate struct {
	Child   Node
	GroupBy []Expr
	Aggs    []AggSpec
	Est     float64
	out     Schema
}

// Schema implements Node.
func (n *Aggregate) Schema() Schema { return n.out }

// Children implements Node.
func (n *Aggregate) Children() []Node { return []Node{n.Child} }

// Rows implements Node.
func (n *Aggregate) Rows() float64 { return n.Est }

func (n *Aggregate) String() string {
	return fmt.Sprintf("Aggregate groups=%d aggs=%d", len(n.GroupBy), len(n.Aggs))
}

// SortKey is one ORDER BY key over the child's output.
type SortKey struct {
	Expr Expr
	Desc bool
}

// Sort orders rows by Keys.
type Sort struct {
	Child Node
	Keys  []SortKey
}

// Schema implements Node.
func (n *Sort) Schema() Schema { return n.Child.Schema() }

// Children implements Node.
func (n *Sort) Children() []Node { return []Node{n.Child} }

// Rows implements Node.
func (n *Sort) Rows() float64 { return n.Child.Rows() }

func (n *Sort) String() string { return fmt.Sprintf("Sort keys=%d", len(n.Keys)) }

// TopN is a fused Sort+Limit: the binder rewrites ORDER BY + LIMIT N
// [OFFSET M] into one node the executor serves with a bounded heap of
// N+Offset rows — O(k) memory, no input materialization, and never a spill,
// however large the input. Output order (including NULL placement and key
// ties, which break by arrival order) is byte-for-byte what Sort followed by
// Limit would produce.
type TopN struct {
	Child     Node
	Keys      []SortKey
	N, Offset int
}

// Schema implements Node.
func (n *TopN) Schema() Schema { return n.Child.Schema() }

// Children implements Node.
func (n *TopN) Children() []Node { return []Node{n.Child} }

// Rows implements Node.
func (n *TopN) Rows() float64 {
	r := n.Child.Rows()
	if float64(n.N) < r {
		return float64(n.N)
	}
	return r
}

func (n *TopN) String() string {
	return fmt.Sprintf("TopN %d offset %d keys=%d", n.N, n.Offset, len(n.Keys))
}

// Limit passes at most N rows after skipping Offset.
type Limit struct {
	Child     Node
	N, Offset int
}

// Schema implements Node.
func (n *Limit) Schema() Schema { return n.Child.Schema() }

// Children implements Node.
func (n *Limit) Children() []Node { return []Node{n.Child} }

// Rows implements Node.
func (n *Limit) Rows() float64 {
	r := n.Child.Rows()
	if n.N >= 0 && float64(n.N) < r {
		return float64(n.N)
	}
	return r
}

func (n *Limit) String() string { return fmt.Sprintf("Limit %d offset %d", n.N, n.Offset) }

// Explain renders the plan tree, one node per line, children indented.
func Explain(n Node) string {
	var b strings.Builder
	var walk func(Node, int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.String())
		b.WriteString(fmt.Sprintf("  (~%.0f rows)", n.Rows()))
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// StageOf maps a plan node to the execution-engine stage that owns it in the
// staged engine (§4.3): fscan, iscan, filter, sort, join, aggr, or exec for
// the remaining glue operators. Scan stages carry their table name for
// per-table affinity; pooled schedulers group them by class (exec.StageClass).
func StageOf(n Node) string {
	switch x := n.(type) {
	case *SeqScan:
		return "fscan:" + x.Table.Name
	case *IndexScan:
		return "iscan:" + x.Table.Name
	case *Filter:
		return "filter"
	case *Sort:
		return "sort"
	case *TopN:
		return "sort"
	case *Join:
		return "join"
	case *Aggregate:
		return "aggr"
	default:
		return "exec"
	}
}
