package plan

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"stagedb/internal/catalog"
	"stagedb/internal/sql"
	"stagedb/internal/value"
)

// countParams reports the parameters a plan still references: one past the
// highest Param index in it — the oracle the substitution tests check
// Substitute against. It reaches every field of every plan node and
// expression by reflection, not through the package's own slot and child
// lists, so a slot those lists miss shows up as a Param Substitute left in
// its copy.
func countParams(n Node) int {
	max := 0
	walkPlanValues(n, func(v reflect.Value) {
		if p, ok := v.Interface().(*Param); ok && p.Idx+1 > max {
			max = p.Idx + 1
		}
	})
	return max
}

// walkPlanValues calls fn on every non-nil pointer reachable from n through
// the fields, slices and interfaces of this package's types; it does not
// descend into other packages' types (the catalog's tables, values).
func walkPlanValues(n Node, fn func(reflect.Value)) {
	pkg := reflect.TypeOf(Param{}).PkgPath()
	var visit func(reflect.Value)
	visit = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Interface:
			if !v.IsNil() {
				visit(v.Elem())
			}
		case reflect.Pointer:
			if !v.IsNil() && v.Type().Elem().PkgPath() == pkg {
				fn(v)
				visit(v.Elem())
			}
		case reflect.Slice:
			for i := range v.Len() {
				visit(v.Index(i))
			}
		case reflect.Struct:
			if v.Type().PkgPath() == pkg {
				for i := range v.NumField() {
					visit(v.Field(i))
				}
			}
		}
	}
	visit(reflect.ValueOf(n))
}

// planValues renders every Param and Const a plan holds, in field order.
func planValues(n Node) string {
	var b strings.Builder
	walkPlanValues(n, func(v reflect.Value) {
		switch x := v.Interface().(type) {
		case *Param:
			b.WriteString(x.String() + " ")
		case *Const:
			b.WriteString(x.String() + " ")
		}
	})
	return b.String()
}

func paramCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	tbl, err := cat.Create("t", catalog.Schema{Columns: []catalog.Column{
		{Name: "id", Type: value.Int, PrimaryKey: true},
		{Name: "v", Type: value.Int},
		{Name: "name", Type: value.Text},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AddIndex("t", "pk_t", "id", true); err != nil {
		t.Fatal(err)
	}
	_ = tbl
	return cat
}

// TestBindPlaceholderBecomesParam: `?` binds to a Param expression that
// refuses to evaluate unbound.
func TestBindPlaceholderBecomesParam(t *testing.T) {
	cat := paramCatalog(t)
	sel := sql.MustParse("SELECT v FROM t WHERE v > ?").(*sql.Select)
	node, err := BindSelect(cat, sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := countParams(node); got != 1 {
		t.Fatalf("CountParams = %d, want 1", got)
	}
	p := &Param{Idx: 0}
	if _, err := p.Eval(nil); err == nil {
		t.Fatal("unbound Param must not evaluate")
	}
}

// TestParamIndexBound: a `?` equality on an indexed column keeps its
// IndexScan in the prepared plan; Substitute resolves the bound.
func TestParamIndexBound(t *testing.T) {
	cat := paramCatalog(t)
	sel := sql.MustParse("SELECT v FROM t WHERE id = ?").(*sql.Select)
	node, err := BindSelect(cat, sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Explain(node), "IndexScan") {
		t.Fatalf("parameterized point query should plan an IndexScan:\n%s", Explain(node))
	}
	bound, err := Substitute(node, []value.Value{value.NewInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	// The original plan must be untouched (it is shared across executions).
	if countParams(node) != 1 {
		t.Fatal("Substitute mutated the cached plan")
	}
	if countParams(bound) != 0 {
		t.Fatal("Substitute left parameters in the private copy")
	}
	var scan *IndexScan
	var find func(Node)
	find = func(n Node) {
		if s, ok := n.(*IndexScan); ok {
			scan = s
		}
		for _, c := range n.Children() {
			find(c)
		}
	}
	find(bound)
	if scan == nil {
		t.Fatal("no IndexScan in substituted plan")
	}
	lo, hi, err := scan.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if lo.Int() != 7 || hi.Int() != 7 {
		t.Fatalf("bounds = [%s, %s], want [7, 7]", lo, hi)
	}
}

// TestSubstituteArityError: substituting too few arguments fails.
func TestSubstituteArityError(t *testing.T) {
	cat := paramCatalog(t)
	sel := sql.MustParse("SELECT v FROM t WHERE v BETWEEN ? AND ?").(*sql.Select)
	node, err := BindSelect(cat, sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Substitute(node, []value.Value{value.NewInt(1)}); err == nil {
		t.Fatal("short argument list must fail")
	}
	if _, err := Substitute(node, []value.Value{value.NewInt(1), value.NewInt(5)}); err != nil {
		t.Fatal(err)
	}
}

// TestSubstituteDistinct: a prepared SELECT DISTINCT rides through Substitute
// as the grouping it binds to, and matches the literal query.
func TestSubstituteDistinct(t *testing.T) {
	cat := paramCatalog(t)
	bind := func(q string) Node {
		t.Helper()
		node, err := BindSelect(cat, sql.MustParse(q).(*sql.Select), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	prepared := bind("SELECT DISTINCT name FROM t WHERE v < ?")
	bound, err := Substitute(prepared, []value.Value{value.NewInt(5)})
	if err != nil {
		t.Fatal(err)
	}
	if countParams(prepared) != 1 || countParams(bound) != 0 {
		t.Fatalf("parameters: %d in the prepared plan, %d after Substitute", countParams(prepared), countParams(bound))
	}
	got, want := Explain(bound), Explain(bind("SELECT DISTINCT name FROM t WHERE v < 5"))
	if got != want || !strings.HasPrefix(got, "Aggregate groups=1 aggs=0") {
		t.Fatalf("substituted plan:\n%s\nliteral plan:\n%s", got, want)
	}
}

// TestGenericPlanSubstituteConcurrent: one shared generic plan — parameters
// in an aggregate's argument, an IN list, HAVING and a sort key — is
// substituted from many goroutines at once. Each copy matches a serial
// Substitute with the same arguments, and the shared plan is unchanged.
func TestGenericPlanSubstituteConcurrent(t *testing.T) {
	cat := paramCatalog(t)
	sel := sql.MustParse("SELECT name, SUM(v * ?) FROM t WHERE v IN (?, ?, 7) GROUP BY name " +
		"HAVING COUNT(*) IN (?, ?) ORDER BY SUM(v * ?) * ? DESC").(*sql.Select)
	shared, err := BindSelect(cat, sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := countParams(shared); got != 7 {
		t.Fatalf("generic plan references %d parameters, want 7", got)
	}
	before := planValues(shared)
	args := func(g int) []value.Value {
		out := make([]value.Value, 7)
		for i := range out {
			out[i] = value.NewInt(int64(100*g + i))
		}
		return out
	}
	const goroutines, rounds = 8, 200
	want := make([]string, goroutines)
	for g := range want {
		bound, err := Substitute(shared, args(g))
		if err != nil {
			t.Fatal(err)
		}
		if countParams(bound) != 0 {
			t.Fatalf("Substitute left parameters: %s", planValues(bound))
		}
		want[g] = planValues(bound)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				bound, err := Substitute(shared, args(g))
				if err == nil && (countParams(bound) != 0 || planValues(bound) != want[g]) {
					err = fmt.Errorf("goroutine %d: substituted plan holds %s, want %s", g, planValues(bound), want[g])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if after := planValues(shared); after != before {
		t.Fatalf("Substitute changed the shared plan: %s, was %s", after, before)
	}
}

// TestSubstituteAllocsPointRead pins what Substitute allocates on a point
// read's generic plan: the Project and IndexScan it copies and the two
// bound constants.
func TestSubstituteAllocsPointRead(t *testing.T) {
	cat := catalog.New()
	if _, err := cat.Create("acct", catalog.Schema{Columns: []catalog.Column{
		{Name: "id", Type: value.Int, PrimaryKey: true},
		{Name: "grp", Type: value.Int},
		{Name: "bal", Type: value.Int},
		{Name: "pad", Type: value.Text},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AddIndex("acct", "pk_acct", "id", true); err != nil {
		t.Fatal(err)
	}
	node, err := BindSelect(cat, sql.MustParse("SELECT bal FROM acct WHERE id = ?").(*sql.Select), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !PointProbe(node) {
		t.Fatalf("not a point probe:\n%s", Explain(node))
	}
	args := []value.Value{value.NewInt(7)}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := Substitute(node, args); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("Substitute allocates %v times per point read, want at most 4", allocs)
	}
}
