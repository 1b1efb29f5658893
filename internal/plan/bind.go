package plan

import (
	"fmt"

	"stagedb/internal/catalog"
	"stagedb/internal/sql"
	"stagedb/internal/value"
)

// Options steer the optimizer; the zero value enables everything. Tests and
// benches flip the Disable switches to pin a plainer plan: a reference for
// the same query, or a fixed join order and access path.
type Options struct {
	// DisableIndex forces sequential scans.
	DisableIndex bool
	// DisablePushdown keeps all predicates in a Filter above the joins.
	DisablePushdown bool
	// DisableJoinReorder keeps tables in FROM order.
	DisableJoinReorder bool
	// LiveRowCount, when set, supplies a live cardinality for tables whose
	// collected stats are missing (ANALYZE never ran). The engine wires it
	// to the heap's slot-count fast path, which walks page slot arrays
	// without touching record payloads.
	LiveRowCount func(table string) (int64, bool)
}

// Catalog is the subset of catalog lookups the binder needs.
type Catalog interface {
	Get(name string) (*catalog.Table, error)
}

// BindSelect turns a parsed SELECT into an executable plan. Its scans carry
// the set of columns the plan reads from them (see pruneScans).
func BindSelect(cat Catalog, sel *sql.Select, opt Options) (Node, error) {
	b := &selBinder{cat: cat, opt: opt}
	tree, err := b.bind(sel)
	if err != nil {
		return nil, err
	}
	pruneScans(tree, nil)
	return tree, nil
}

// BindTableExpr binds an expression against a single table's schema (used by
// UPDATE/DELETE and CHECK-style evaluation).
func BindTableExpr(t *catalog.Table, e sql.Expr) (Expr, error) {
	schema := scanSchema(t, t.Name)
	eb := exprBinder{schema: schema}
	bound, err := eb.bind(e)
	if err != nil {
		return nil, err
	}
	return fold(bound), nil
}

type relation struct {
	binding string
	table   *catalog.Table
	filters []Expr // bound against the scan's own schema
	est     float64
}

type colOrigin struct {
	binding string
	table   *catalog.Table
	colIdx  int // in the base table; -1 for computed
}

type selBinder struct {
	cat Catalog
	opt Options
}

func (b *selBinder) bind(sel *sql.Select) (Node, error) {
	// 1. Resolve relations.
	var rels []*relation
	seen := map[string]bool{}
	addRel := func(ref sql.TableRef) error {
		t, err := b.cat.Get(ref.Table)
		if err != nil {
			return err
		}
		name := ref.Name()
		if seen[name] {
			return fmt.Errorf("plan: duplicate table binding %q", name)
		}
		seen[name] = true
		est := float64(t.Stats.RowCount)
		if est <= 0 && b.opt.LiveRowCount != nil {
			if n, ok := b.opt.LiveRowCount(ref.Table); ok && n > 0 {
				est = float64(n)
			}
		}
		if est <= 0 {
			est = 1000
		}
		rels = append(rels, &relation{binding: name, table: t, est: est})
		return nil
	}
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("plan: SELECT requires FROM")
	}
	for _, ref := range sel.From {
		if err := addRel(ref); err != nil {
			return nil, err
		}
	}
	for _, j := range sel.Joins {
		if err := addRel(j.Table); err != nil {
			return nil, err
		}
	}

	// Full schema across all relations, for classifying conjuncts.
	var full Schema
	var origins []colOrigin
	for _, r := range rels {
		for i, c := range r.table.Schema.Columns {
			full = append(full, ColInfo{Table: r.binding, Name: c.Name, Type: c.Type})
			origins = append(origins, colOrigin{binding: r.binding, table: r.table, colIdx: i})
		}
	}

	// 2. Collect conjuncts from WHERE and JOIN ... ON.
	var conjuncts []sql.Expr
	conjuncts = append(conjuncts, splitConjuncts(sel.Where)...)
	for _, j := range sel.Joins {
		conjuncts = append(conjuncts, splitConjuncts(j.On)...)
	}

	// 3. Classify: single-relation conjuncts push into scans.
	var multi []sql.Expr
	for _, c := range conjuncts {
		bindings, err := referencedBindings(c, full)
		if err != nil {
			return nil, err
		}
		if len(bindings) == 1 && !b.opt.DisablePushdown {
			rel := findRel(rels, firstKey(bindings))
			local := scanSchema(rel.table, rel.binding)
			eb := exprBinder{schema: local}
			bound, err := eb.bind(c)
			if err != nil {
				return nil, err
			}
			rel.filters = append(rel.filters, fold(bound))
			continue
		}
		if len(bindings) == 0 && !b.opt.DisablePushdown {
			// Constant predicate: attach to the first relation (it either
			// keeps or kills everything).
			rel := rels[0]
			local := scanSchema(rel.table, rel.binding)
			eb := exprBinder{schema: local}
			bound, err := eb.bind(c)
			if err != nil {
				return nil, err
			}
			rel.filters = append(rel.filters, fold(bound))
			continue
		}
		multi = append(multi, c)
	}

	// 4. Estimate filtered scans and build scan nodes.
	scans := make(map[string]Node, len(rels))
	for _, r := range rels {
		node, err := b.buildScan(r)
		if err != nil {
			return nil, err
		}
		scans[r.binding] = node
		r.est = node.Rows()
	}

	// 5. Join ordering (greedy, left-deep).
	order := b.joinOrder(rels, multi)

	tree := scans[order[0].binding]
	treeOrigins := originsFor(order[0])
	joined := map[string]bool{order[0].binding: true}
	remaining := append([]sql.Expr(nil), multi...)

	for _, rel := range order[1:] {
		right := scans[rel.binding]
		rightOrigins := originsFor(rel)
		newOrigins := append(append([]colOrigin(nil), treeOrigins...), rightOrigins...)
		newSchema := append(append(Schema(nil), tree.Schema()...), right.Schema()...)

		// Find conjuncts now fully bound.
		var nowBound []sql.Expr
		var still []sql.Expr
		joined[rel.binding] = true
		for _, c := range remaining {
			bindings, err := referencedBindings(c, full)
			if err != nil {
				return nil, err
			}
			all := true
			for bn := range bindings {
				if !joined[bn] {
					all = false
					break
				}
			}
			if all {
				nowBound = append(nowBound, c)
			} else {
				still = append(still, c)
			}
		}
		remaining = still

		// Split equi keys from residual conditions.
		var leftKeys, rightKeys []int
		var residuals []Expr
		leftWidth := len(tree.Schema())
		for _, c := range nowBound {
			eb := exprBinder{schema: newSchema}
			bound, err := eb.bind(c)
			if err != nil {
				return nil, err
			}
			bound = fold(bound)
			if lk, rk, ok := equiKey(bound, leftWidth); ok {
				leftKeys = append(leftKeys, lk)
				rightKeys = append(rightKeys, rk-leftWidth)
				continue
			}
			residuals = append(residuals, bound)
		}

		var residual Expr
		for _, r := range residuals {
			if residual == nil {
				residual = r
			} else {
				residual = &Binary{Op: "AND", L: residual, R: r}
			}
		}
		est := joinEstimate(tree.Rows(), right.Rows(), leftKeys, treeOrigins, rightKeys, rightOrigins)
		tree = &Join{
			L: tree, R: right,
			LeftKeys: leftKeys, RightKey: rightKeys,
			Residual: residual, Est: est, out: newSchema,
		}
		treeOrigins = newOrigins
	}

	// Any conjuncts never fully bound reference unknown tables.
	if len(remaining) > 0 {
		return nil, fmt.Errorf("plan: predicate %s references tables not in FROM", remaining[0])
	}

	// 6. Aggregation or plain projection.
	treeSchema := tree.Schema()
	hasAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, item := range sel.Items {
		if !item.Star && sql.HasAggregate(item.Expr) {
			hasAgg = true
		}
	}

	var projExprs []Expr
	var projSchema Schema
	var having Expr

	if hasAgg {
		agg, aggOut, rewriter, err := b.buildAggregate(tree, treeOrigins, sel)
		if err != nil {
			return nil, err
		}
		tree = agg
		// Bind projections and HAVING over the aggregate output.
		for _, item := range sel.Items {
			if item.Star {
				return nil, fmt.Errorf("plan: SELECT * with GROUP BY is not supported")
			}
			e, err := rewriter(item.Expr)
			if err != nil {
				return nil, err
			}
			name := item.Alias
			if name == "" {
				name = item.Expr.String()
			}
			projExprs = append(projExprs, e)
			projSchema = append(projSchema, ColInfo{Name: name, Type: e.Type()})
		}
		if sel.Having != nil {
			having, err = rewriter(sel.Having)
			if err != nil {
				return nil, err
			}
		}
		_ = aggOut
	} else {
		eb := exprBinder{schema: treeSchema}
		for _, item := range sel.Items {
			if item.Star {
				for i, c := range treeSchema {
					projExprs = append(projExprs, &Column{Idx: i, Name: c.Name, Typ: c.Type})
					projSchema = append(projSchema, c)
				}
				continue
			}
			e, err := eb.bind(item.Expr)
			if err != nil {
				return nil, err
			}
			e = fold(e)
			name := item.Alias
			if name == "" {
				if cr, ok := item.Expr.(*sql.ColumnRef); ok {
					name = cr.Name
				} else {
					name = item.Expr.String()
				}
			}
			projExprs = append(projExprs, e)
			projSchema = append(projSchema, ColInfo{Name: name, Type: e.Type()})
		}
	}

	if having != nil {
		tree = &Filter{Child: tree, Pred: having, Est: tree.Rows() * 0.5}
	}

	// 7. ORDER BY prefers the projection output (aliases visible); keys not
	// visible there (e.g. ORDER BY a non-projected column) bind against the
	// pre-projection schema and sort below the Project.
	var sortAbove, sortBelow []SortKey
	if len(sel.OrderBy) > 0 {
		above := exprBinder{schema: projSchema}
		below := exprBinder{schema: tree.Schema()}
		for _, item := range sel.OrderBy {
			if e, err := above.bind(item.Expr); err == nil {
				if len(sortBelow) > 0 {
					return nil, fmt.Errorf("plan: ORDER BY mixes projected and unprojected keys")
				}
				sortAbove = append(sortAbove, SortKey{Expr: fold(e), Desc: item.Desc})
				continue
			}
			e, err := below.bind(item.Expr)
			if err != nil {
				return nil, err
			}
			if len(sortAbove) > 0 {
				return nil, fmt.Errorf("plan: ORDER BY mixes projected and unprojected keys")
			}
			if sel.Distinct {
				// The grouping above the Project would not keep this order.
				return nil, fmt.Errorf("plan: for SELECT DISTINCT, ORDER BY keys must appear in the select list")
			}
			sortBelow = append(sortBelow, SortKey{Expr: fold(e), Desc: item.Desc})
		}
	}
	if len(sortBelow) > 0 {
		tree = &Sort{Child: tree, Keys: sortBelow}
	}
	tree = &Project{Child: tree, Exprs: projExprs, out: projSchema}

	if sel.Distinct {
		// DISTINCT is a grouping by every output column with no aggregates.
		groups := make([]Expr, len(projSchema))
		for i, c := range projSchema {
			groups[i] = &Column{Idx: i, Name: c.Name, Typ: c.Type}
		}
		tree = &Aggregate{Child: tree, GroupBy: groups, Est: groupsEstimate(tree.Rows()), out: projSchema}
	}
	if len(sortAbove) > 0 {
		tree = &Sort{Child: tree, Keys: sortAbove}
	}

	if sel.Limit >= 0 || sel.Offset > 0 {
		n := sel.Limit
		if n < 0 {
			n = -1
		}
		tree = fuseTopN(tree, n, sel.Offset)
	}
	return tree, nil
}

// TopNMaxK bounds the fused Top-N heap: the Top-N operator holds k=N+Offset
// rows in memory with no spill path, so a LIMIT beyond this keeps the
// Sort+Limit shape, whose external sort stays within the WorkMem budget by
// spilling runs.
const TopNMaxK = 8192

// fuseTopN wraps tree in a Limit — or, when a bounded LIMIT sits directly on
// a Sort (or on a Project over a Sort, which is row-wise and passes the
// bound through), fuses the pair into a TopN node: the executor then keeps a
// k-heap of N+Offset rows instead of materializing and sorting everything.
// Huge limits (k > TopNMaxK) are not fused — a bounded heap of millions of
// rows would just be the unbounded sort again, without its spill path.
func fuseTopN(tree Node, n, offset int) Node {
	if n >= 0 && n+offset <= TopNMaxK {
		switch x := tree.(type) {
		case *Sort:
			return &TopN{Child: x.Child, Keys: x.Keys, N: n, Offset: offset}
		case *Project:
			if srt, ok := x.Child.(*Sort); ok {
				x.Child = &TopN{Child: srt.Child, Keys: srt.Keys, N: n, Offset: offset}
				return x
			}
		}
	}
	return &Limit{Child: tree, N: n, Offset: offset}
}

// buildScan chooses sequential or index access for a relation and computes
// its cardinality estimate.
func (b *selBinder) buildScan(r *relation) (Node, error) {
	out := scanSchema(r.table, r.binding)
	base := float64(r.table.Stats.RowCount)
	if base <= 0 {
		base = 1000
	}

	// Estimate selectivity and look for an indexable bound. Bounds are
	// Const or Param expressions (nil = open side); Params keep their index
	// access in prepared plans and resolve at execution. Strict bounds
	// (< and >) narrow the B+tree range but keep their predicate as a
	// residual filter, because tree cursors are endpoint-inclusive.
	sel := 1.0
	var best *catalog.Index
	var bestLo, bestHi Expr
	var bestSrc Expr // the original predicate the bound stands for
	bestEq := false
	var residual []Expr

	for _, f := range r.filters {
		s := filterSelectivity(f, r.table)
		sel *= s
		if b.opt.DisableIndex || best != nil && bestEq {
			residual = append(residual, f)
			continue
		}
		if col, lo, hi, eq, strict, ok := indexableBoundExpr(f); ok {
			ix := r.table.IndexOn(r.table.Schema.Columns[col].Name)
			if ix != nil && (best == nil || eq) {
				if best != nil && bestSrc != nil {
					// Displaced candidate's original filter must be re-applied.
					residual = append(residual, bestSrc)
				}
				best, bestLo, bestHi, bestEq = ix, lo, hi, eq
				bestSrc = f
				if strict {
					// The inclusive index range over-approximates < / >;
					// re-apply the exact predicate during the scan.
					residual = append(residual, f)
					bestSrc = nil // already in residual; nothing to restore
				}
				continue
			}
		}
		residual = append(residual, f)
	}

	est := base * sel
	if est < 1 {
		est = 1
	}
	filter := andAll(residual)
	if best != nil {
		node := &IndexScan{
			Table: r.table, Binding: r.binding, Index: best,
			Lo: value.NewNull(), Hi: value.NewNull(),
			Filter: filter, Est: est, out: out,
		}
		// Constant bounds resolve now; parameter bounds ride as expressions.
		assign := func(e Expr, v *value.Value, ve *Expr) {
			if c, ok := e.(*Const); ok {
				*v = c.Val
			} else if e != nil {
				*ve = e
			}
		}
		assign(bestLo, &node.Lo, &node.LoExpr)
		assign(bestHi, &node.Hi, &node.HiExpr)
		return node, nil
	}
	filter = andAll(r.filters)
	return &SeqScan{Table: r.table, Binding: r.binding, Filter: filter, Est: est, out: out}, nil
}

// indexableBoundExpr recognizes col-vs-key predicates usable for an index,
// where the key side is a constant or a `?` parameter: equality, range
// comparisons, and BETWEEN. Bounds come back as expressions (nil = open
// side) so parameterized bounds survive into prepared plans. strict reports
// an exclusive comparison (< or >): the B+tree range is endpoint-inclusive,
// so the caller must re-apply the predicate as a residual filter.
func indexableBoundExpr(e Expr) (col int, lo, hi Expr, eq, strict, ok bool) {
	key := func(e Expr) bool {
		switch x := e.(type) {
		case *Const:
			return !x.Val.IsNull()
		case *Param:
			return true
		}
		return false
	}
	switch x := e.(type) {
	case *Binary:
		c, cok := x.L.(*Column)
		k := x.R
		op := x.Op
		if !cok || !key(k) {
			// Try reversed: key OP col.
			c, cok = x.R.(*Column)
			k = x.L
			if !cok || !key(k) {
				return 0, nil, nil, false, false, false
			}
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
		switch op {
		case "=":
			return c.Idx, k, k, true, false, true
		case "<", "<=":
			return c.Idx, nil, k, false, op == "<", true
		case ">", ">=":
			return c.Idx, k, nil, false, op == ">", true
		}
	case *Between:
		c, cok := x.E.(*Column)
		if cok && key(x.Lo) && key(x.Hi) && !x.Negate {
			return c.Idx, x.Lo, x.Hi, false, false, true
		}
	}
	return 0, nil, nil, false, false, false
}

// joinOrder returns relations in greedy join order: start with the smallest
// estimate, then repeatedly add the relation with the cheapest join (prefer
// ones connected by an equi conjunct).
func (b *selBinder) joinOrder(rels []*relation, multi []sql.Expr) []*relation {
	if b.opt.DisableJoinReorder || len(rels) <= 2 {
		return rels
	}
	// Connectivity: bindings mentioned together in a conjunct.
	connected := func(a, bn string) bool {
		for _, c := range multi {
			names := bindingNames(c)
			if names[a] && names[bn] {
				return true
			}
		}
		return false
	}
	var order []*relation
	used := make(map[string]bool)
	// Start smallest.
	start := 0
	for i, r := range rels {
		if r.est < rels[start].est {
			start = i
		}
	}
	order = append(order, rels[start])
	used[rels[start].binding] = true
	for len(order) < len(rels) {
		bestIdx := -1
		bestScore := 0.0
		for i, r := range rels {
			if used[r.binding] {
				continue
			}
			score := r.est
			conn := false
			for _, o := range order {
				if connected(o.binding, r.binding) {
					conn = true
					break
				}
			}
			if !conn {
				score *= 1e6 // cross products last
			}
			if bestIdx < 0 || score < bestScore {
				bestIdx, bestScore = i, score
			}
		}
		order = append(order, rels[bestIdx])
		used[rels[bestIdx].binding] = true
	}
	return order
}

func originsFor(r *relation) []colOrigin {
	out := make([]colOrigin, len(r.table.Schema.Columns))
	for i := range out {
		out[i] = colOrigin{binding: r.binding, table: r.table, colIdx: i}
	}
	return out
}

// joinEstimate applies |L||R| / max(V(a), V(b)) for equi joins, |L||R|/10
// otherwise.
func joinEstimate(l, r float64, lk []int, lo []colOrigin, rk []int, ro []colOrigin) float64 {
	if len(lk) == 0 {
		return l * r / 10
	}
	maxDistinct := 10.0
	if lk[0] < len(lo) {
		o := lo[lk[0]]
		if o.colIdx >= 0 && o.colIdx < len(o.table.Stats.Columns) {
			if d := o.table.Stats.Columns[o.colIdx].Distinct; d > 0 {
				maxDistinct = float64(d)
			}
		}
	}
	if rk[0] < len(ro) {
		o := ro[rk[0]]
		if o.colIdx >= 0 && o.colIdx < len(o.table.Stats.Columns) {
			if d := float64(o.table.Stats.Columns[o.colIdx].Distinct); d > maxDistinct {
				maxDistinct = d
			}
		}
	}
	est := l * r / maxDistinct
	if est < 1 {
		est = 1
	}
	return est
}

// --- aggregate planning ---

// groupsEstimate is the number of groups a grouping of rows input rows is
// expected to produce when nothing is known about its keys.
func groupsEstimate(rows float64) float64 { return max(rows/10, 1) }

// groupsFromStats estimates a grouping's groups from its keys: when every
// key is a base-table column (origins maps the child's columns to theirs)
// with an analyzed distinct count, the product of those counts, capped by
// the input rows; groupsEstimate otherwise.
func groupsFromStats(rows float64, keys []Expr, origins []colOrigin) float64 {
	groups := 1.0
	for _, k := range keys {
		c, ok := k.(*Column)
		if !ok || c.Idx >= len(origins) {
			return groupsEstimate(rows)
		}
		o := origins[c.Idx]
		if o.colIdx < 0 || o.colIdx >= len(o.table.Stats.Columns) || o.table.Stats.Columns[o.colIdx].Distinct <= 0 {
			return groupsEstimate(rows)
		}
		groups *= float64(o.table.Stats.Columns[o.colIdx].Distinct)
	}
	return max(min(rows, groups), 1)
}

// buildAggregate plans GROUP BY + aggregate calls and returns the node, its
// schema, and a rewriter that binds post-aggregation expressions (SELECT
// items, HAVING, ORDER BY inputs) against the aggregate output. origins maps
// child's columns to the base-table columns they read.
func (b *selBinder) buildAggregate(child Node, origins []colOrigin, sel *sql.Select) (Node, Schema, func(sql.Expr) (Expr, error), error) {
	in := child.Schema()
	eb := exprBinder{schema: in}

	var groupExprs []Expr
	var groupReprs []string
	for _, g := range sel.GroupBy {
		e, err := eb.bind(g)
		if err != nil {
			return nil, nil, nil, err
		}
		groupExprs = append(groupExprs, fold(e))
		groupReprs = append(groupReprs, g.String())
	}

	// Collect distinct aggregate calls from SELECT items and HAVING.
	var aggs []AggSpec
	var aggReprs []string
	addAgg := func(c *sql.Call) (int, error) {
		repr := c.String()
		for i, r := range aggReprs {
			if r == repr {
				return i, nil
			}
		}
		spec := AggSpec{}
		switch c.Name {
		case "COUNT":
			if c.Star {
				spec.Kind = AggCountStar
			} else {
				spec.Kind = AggCount
			}
		case "SUM":
			spec.Kind = AggSum
		case "AVG":
			spec.Kind = AggAvg
		case "MIN":
			spec.Kind = AggMin
		case "MAX":
			spec.Kind = AggMax
		default:
			return 0, fmt.Errorf("plan: unknown aggregate %s", c.Name)
		}
		if !c.Star {
			if len(c.Args) != 1 {
				return 0, fmt.Errorf("plan: %s takes one argument", c.Name)
			}
			arg, err := eb.bind(c.Args[0])
			if err != nil {
				return 0, err
			}
			spec.Arg = fold(arg)
		}
		aggs = append(aggs, spec)
		aggReprs = append(aggReprs, repr)
		return len(aggs) - 1, nil
	}

	collect := func(e sql.Expr) error {
		var walkErr error
		sql.Walk(e, func(x sql.Expr) bool {
			if c, ok := x.(*sql.Call); ok && sql.IsAggregate(c.Name) {
				if _, err := addAgg(c); err != nil {
					walkErr = err
				}
				return false
			}
			return true
		})
		return walkErr
	}
	for _, item := range sel.Items {
		if item.Star {
			continue
		}
		if err := collect(item.Expr); err != nil {
			return nil, nil, nil, err
		}
	}
	if sel.Having != nil {
		if err := collect(sel.Having); err != nil {
			return nil, nil, nil, err
		}
	}

	// Output schema: group columns then aggregates. Simple column groups
	// keep their table qualifier so ORDER BY t.col still binds above.
	var out Schema
	for i, g := range sel.GroupBy {
		name := g.String()
		table := ""
		if cr, ok := g.(*sql.ColumnRef); ok {
			name = cr.Name
			table = cr.Table
		}
		out = append(out, ColInfo{Table: table, Name: name, Type: groupExprs[i].Type()})
	}
	for i, a := range aggs {
		out = append(out, ColInfo{Name: aggReprs[i], Type: a.ResultType()})
	}

	est := groupsFromStats(child.Rows(), groupExprs, origins)
	if len(sel.GroupBy) == 0 {
		est = 1
	}
	node := &Aggregate{Child: child, GroupBy: groupExprs, Aggs: aggs, Est: est, out: out}

	// The rewriter maps a post-aggregation sql.Expr to a bound Expr over the
	// aggregate's output schema.
	var rewrite func(e sql.Expr) (Expr, error)
	rewrite = func(e sql.Expr) (Expr, error) {
		// A whole expression equal to a GROUP BY expression maps to its
		// output column.
		repr := e.String()
		for i, gr := range groupReprs {
			if repr == gr {
				return &Column{Idx: i, Name: out[i].Name, Typ: out[i].Type}, nil
			}
		}
		switch x := e.(type) {
		case *sql.Call:
			if sql.IsAggregate(x.Name) {
				for i, ar := range aggReprs {
					if ar == repr {
						idx := len(groupExprs) + i
						return &Column{Idx: idx, Name: out[idx].Name, Typ: out[idx].Type}, nil
					}
				}
				return nil, fmt.Errorf("plan: aggregate %s not collected", repr)
			}
			return nil, fmt.Errorf("plan: unknown function %s", x.Name)
		case *sql.Literal:
			return &Const{Val: x.Val}, nil
		case *sql.ColumnRef:
			// Allow referring to a group column by bare name.
			for i := range groupExprs {
				if out[i].Name == x.Name {
					return &Column{Idx: i, Name: out[i].Name, Typ: out[i].Type}, nil
				}
			}
			return nil, fmt.Errorf("plan: column %s must appear in GROUP BY or an aggregate", x)
		case *sql.Binary:
			l, err := rewrite(x.L)
			if err != nil {
				return nil, err
			}
			r, err := rewrite(x.R)
			if err != nil {
				return nil, err
			}
			return fold(&Binary{Op: x.Op, L: l, R: r}), nil
		case *sql.Unary:
			inner, err := rewrite(x.E)
			if err != nil {
				return nil, err
			}
			if x.Op == "NOT" {
				return &Not{E: inner}, nil
			}
			return &Neg{E: inner}, nil
		case *sql.Between:
			v, err := rewrite(x.E)
			if err != nil {
				return nil, err
			}
			lo, err := rewrite(x.Lo)
			if err != nil {
				return nil, err
			}
			hi, err := rewrite(x.Hi)
			if err != nil {
				return nil, err
			}
			return &Between{E: v, Lo: lo, Hi: hi, Negate: x.Not}, nil
		default:
			return nil, fmt.Errorf("plan: unsupported post-aggregate expression %s", e)
		}
	}
	return node, out, rewrite, nil
}

// --- expression binding helpers ---

type exprBinder struct {
	schema Schema
}

func (b exprBinder) bind(e sql.Expr) (Expr, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return &Const{Val: x.Val}, nil
	case *sql.Placeholder:
		return &Param{Idx: x.Idx}, nil
	case *sql.ColumnRef:
		i := b.schema.Find(x.Table, x.Name)
		if i == -2 {
			return nil, fmt.Errorf("plan: ambiguous column %s", x)
		}
		if i < 0 {
			return nil, fmt.Errorf("plan: unknown column %s", x)
		}
		return &Column{Idx: i, Name: b.schema[i].Name, Typ: b.schema[i].Type}, nil
	case *sql.Binary:
		l, err := b.bind(x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.bind(x.R)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: x.Op, L: l, R: r}, nil
	case *sql.Unary:
		inner, err := b.bind(x.E)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return &Not{E: inner}, nil
		}
		return &Neg{E: inner}, nil
	case *sql.Between:
		v, err := b.bind(x.E)
		if err != nil {
			return nil, err
		}
		lo, err := b.bind(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bind(x.Hi)
		if err != nil {
			return nil, err
		}
		return &Between{E: v, Lo: lo, Hi: hi, Negate: x.Not}, nil
	case *sql.InList:
		v, err := b.bind(x.E)
		if err != nil {
			return nil, err
		}
		var list []Expr
		for _, item := range x.List {
			ie, err := b.bind(item)
			if err != nil {
				return nil, err
			}
			list = append(list, ie)
		}
		return &In{E: v, List: list, Negate: x.Not}, nil
	case *sql.LikeExpr:
		v, err := b.bind(x.E)
		if err != nil {
			return nil, err
		}
		p, err := b.bind(x.Pattern)
		if err != nil {
			return nil, err
		}
		return &Like{E: v, Pattern: p, Negate: x.Not}, nil
	case *sql.IsNull:
		v, err := b.bind(x.E)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: v, Negate: x.Not}, nil
	case *sql.Call:
		return nil, fmt.Errorf("plan: aggregate %s not allowed here", x)
	}
	return nil, fmt.Errorf("plan: unsupported expression %T", e)
}

// fold evaluates constant subtrees.
func fold(e Expr) Expr {
	switch x := e.(type) {
	case *Binary:
		x.L, x.R = fold(x.L), fold(x.R)
		if isConst(x.L) && isConst(x.R) {
			if v, err := x.Eval(nil); err == nil {
				return &Const{Val: v}
			}
		}
	case *Not:
		x.E = fold(x.E)
		if isConst(x.E) {
			if v, err := x.Eval(nil); err == nil {
				return &Const{Val: v}
			}
		}
	case *Neg:
		x.E = fold(x.E)
		if isConst(x.E) {
			if v, err := x.Eval(nil); err == nil {
				return &Const{Val: v}
			}
		}
	case *Between:
		x.E, x.Lo, x.Hi = fold(x.E), fold(x.Lo), fold(x.Hi)
	case *In:
		x.E = fold(x.E)
		for i := range x.List {
			x.List[i] = fold(x.List[i])
		}
	case *Like:
		x.E, x.Pattern = fold(x.E), fold(x.Pattern)
	case *IsNull:
		x.E = fold(x.E)
	}
	return e
}

func isConst(e Expr) bool {
	_, ok := e.(*Const)
	return ok
}

// splitConjuncts flattens nested ANDs into a list.
func splitConjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sql.Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

// referencedBindings resolves every column in e against the full schema and
// returns the set of binding names used.
func referencedBindings(e sql.Expr, full Schema) (map[string]bool, error) {
	out := make(map[string]bool)
	var walkErr error
	sql.Walk(e, func(x sql.Expr) bool {
		cr, ok := x.(*sql.ColumnRef)
		if !ok {
			return true
		}
		i := full.Find(cr.Table, cr.Name)
		if i == -2 {
			walkErr = fmt.Errorf("plan: ambiguous column %s", cr)
			return false
		}
		if i < 0 {
			walkErr = fmt.Errorf("plan: unknown column %s", cr)
			return false
		}
		out[full[i].Table] = true
		return true
	})
	return out, walkErr
}

// bindingNames is referencedBindings without error handling, for the
// connectivity heuristic (unresolvable names were caught earlier).
func bindingNames(e sql.Expr) map[string]bool {
	out := make(map[string]bool)
	sql.Walk(e, func(x sql.Expr) bool {
		if cr, ok := x.(*sql.ColumnRef); ok && cr.Table != "" {
			out[cr.Table] = true
		}
		return true
	})
	return out
}

func findRel(rels []*relation, binding string) *relation {
	for _, r := range rels {
		if r.binding == binding {
			return r
		}
	}
	return nil
}

func firstKey(m map[string]bool) string {
	for k := range m {
		return k
	}
	return ""
}

// equiKey recognizes Column = Column predicates crossing the join boundary.
func equiKey(e Expr, leftWidth int) (left, right int, ok bool) {
	b, isBin := e.(*Binary)
	if !isBin || b.Op != "=" {
		return 0, 0, false
	}
	lc, lok := b.L.(*Column)
	rc, rok := b.R.(*Column)
	if !lok || !rok {
		return 0, 0, false
	}
	switch {
	case lc.Idx < leftWidth && rc.Idx >= leftWidth:
		return lc.Idx, rc.Idx, true
	case rc.Idx < leftWidth && lc.Idx >= leftWidth:
		return rc.Idx, lc.Idx, true
	}
	return 0, 0, false
}

// indexableBound recognizes col-vs-constant predicates usable for an index:
// equality, range comparisons, and BETWEEN. It returns the column index,
// bounds (NULL = open), and whether the bound is an equality.
func indexableBound(e Expr) (col int, lo, hi value.Value, eq, ok bool) {
	switch x := e.(type) {
	case *Binary:
		c, cok := x.L.(*Column)
		k, kok := x.R.(*Const)
		op := x.Op
		if !cok || !kok {
			// Try reversed: const OP col.
			c, cok = x.R.(*Column)
			k, kok = x.L.(*Const)
			if !cok || !kok {
				return 0, lo, hi, false, false
			}
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
		if k.Val.IsNull() {
			return 0, lo, hi, false, false
		}
		switch op {
		case "=":
			return c.Idx, k.Val, k.Val, true, true
		case "<", "<=":
			return c.Idx, value.NewNull(), k.Val, false, true
		case ">", ">=":
			return c.Idx, k.Val, value.NewNull(), false, true
		}
	case *Between:
		c, cok := x.E.(*Column)
		l, lok := x.Lo.(*Const)
		h, hok := x.Hi.(*Const)
		if cok && lok && hok && !x.Negate {
			return c.Idx, l.Val, h.Val, false, true
		}
	}
	return 0, lo, hi, false, false
}

// filterSelectivity estimates the fraction of rows passing a bound filter.
func filterSelectivity(e Expr, t *catalog.Table) float64 {
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case "=":
			if c, ok := x.L.(*Column); ok {
				return t.Stats.Selectivity(c.Idx)
			}
			if c, ok := x.R.(*Column); ok {
				return t.Stats.Selectivity(c.Idx)
			}
			return 0.1
		case "<", "<=", ">", ">=":
			if col, lo, hi, _, ok := indexableBound(x); ok {
				return t.Stats.RangeSelectivity(col, lo, hi)
			}
			return 0.3
		case "AND":
			return filterSelectivity(x.L, t) * filterSelectivity(x.R, t)
		case "OR":
			s := filterSelectivity(x.L, t) + filterSelectivity(x.R, t)
			if s > 1 {
				s = 1
			}
			return s
		}
	case *Between:
		if col, lo, hi, _, ok := indexableBound(x); ok {
			return t.Stats.RangeSelectivity(col, lo, hi)
		}
		return 0.25
	case *In:
		if c, ok := x.E.(*Column); ok {
			s := t.Stats.Selectivity(c.Idx) * float64(len(x.List))
			if s > 1 {
				s = 1
			}
			return s
		}
		return 0.2
	case *Like:
		return 0.25
	case *IsNull:
		return 0.1
	case *Not:
		return 1 - filterSelectivity(x.E, t)
	}
	return 0.3
}

// andAll combines bound predicates with AND; nil for empty input.
func andAll(exprs []Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if out == nil {
			out = e
		} else {
			out = &Binary{Op: "AND", L: out, R: e}
		}
	}
	return out
}
