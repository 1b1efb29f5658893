package plan

// prune.go computes, once per bound plan, which of its table's columns each
// scan must decode. A heap row costs what is materialised from it, so the
// scans — the one place every query's rows pass through — decode only the
// columns some expression above them reads; everything else stays NULL in a
// row of unchanged width, which is why no column index anywhere is remapped.

// pruneScans walks the plan top-down carrying, for each node, the set of its
// output columns that something above it reads (nil = all of them), and
// stores on every SeqScan/IndexScan the resulting set of table columns as
// Cols (nil = decode everything). The root's consumer is the client, which
// reads every output column. Anything the pass does not recognise — a node
// kind, an expression kind — widens to "all columns": pruning must be
// proved, never assumed.
func pruneScans(n Node, need []bool) {
	switch x := n.(type) {
	case *SeqScan:
		x.Cols = scanCols(withExprs(need, x.Filter))
	case *IndexScan:
		// Only the residual filter reads the row: LoExpr/HiExpr are constants
		// or parameters, and the key range is the B+tree's work.
		x.Cols = scanCols(withExprs(need, x.Filter))
	case *Filter, *Sort, *TopN:
		// Same schema in and out: what the parents read plus what the node
		// itself evaluates.
		pruneScans(n.Children()[0], withExprs(need, nodeExprs(n)...))
	case *Project, *Aggregate:
		// A fresh output schema: the child owes exactly the inputs of the
		// node's expressions (every one is computed, whether or not the
		// parent reads its slot; COUNT(*) has no argument and reads nothing).
		child := n.Children()[0]
		pruneScans(child, markAll(make([]bool, len(child.Schema())), nodeExprs(n)))
	case *Limit:
		pruneScans(x.Child, need)
	case *Join:
		// The output is L‖R: keys are positions in each side, the residual
		// is evaluated on the concatenation.
		need = withExprs(need, x.Residual)
		if need == nil {
			pruneScans(x.L, nil)
			pruneScans(x.R, nil)
			return
		}
		lw := len(x.L.Schema())
		l, r := need[:lw:lw], need[lw:]
		for _, k := range x.LeftKeys {
			l[k] = true
		}
		for _, k := range x.RightKey {
			r[k] = true
		}
		pruneScans(x.L, l)
		pruneScans(x.R, r)
	default:
		for _, c := range n.Children() {
			pruneScans(c, nil)
		}
	}
}

// withExprs returns need widened by every column the expressions reference.
// It copies rather than mutates: need sets are shared down the walk. nil in,
// or an expression markCols cannot vouch for, gives nil out.
func withExprs(need []bool, exprs ...Expr) []bool {
	if need == nil {
		return nil
	}
	out := make([]bool, len(need))
	copy(out, need)
	return markAll(out, exprs)
}

// markAll marks in set every column the expressions reference and returns
// it, or nil if markCols cannot vouch for one of them.
func markAll(set []bool, exprs []Expr) []bool {
	for _, e := range exprs {
		if !markCols(e, set) {
			return nil
		}
	}
	return set
}

// ExprCols returns the columns of a width-column row that e reads, in the
// shape storage.DecodeRowInto takes: nil when e reads every column or
// contains a node markCols cannot vouch for. DML uses it to decode only the
// WHERE clause's columns of each heap record before evaluating it.
func ExprCols(e Expr, width int) []bool {
	return scanCols(markAll(make([]bool, width), []Expr{e}))
}

// scanCols collapses a scan's finished set to nil when it is every column.
func scanCols(cols []bool) []bool {
	for _, c := range cols {
		if !c {
			return cols
		}
	}
	return nil
}

// markCols sets set[i] for every Column i under e. It reports false for an
// expression kind it does not know or a column outside set — the caller then
// assumes every column is read. Param and Const read no column.
func markCols(e Expr, set []bool) bool {
	switch x := e.(type) {
	case nil, *Const, *Param:
		return true
	case *Column:
		if x.Idx < 0 || x.Idx >= len(set) {
			return false
		}
		set[x.Idx] = true
		return true
	}
	// Any other kind reads what its operands read. A kind without an operand
	// the child map knows of is one defined outside this package: its reads
	// cannot be vouched for.
	ok, operands := true, 0
	mapChildren(e, func(c Expr) Expr {
		operands++
		ok = ok && markCols(c, set)
		return c
	})
	return ok && operands > 0
}
