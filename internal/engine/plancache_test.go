package engine

import (
	"context"
	"fmt"
	"testing"

	"stagedb/internal/exec"
	"stagedb/internal/plan"
	"stagedb/internal/sql"
	"stagedb/internal/value"
)

// runBound executes q with args the way the stagedb package runs a
// statement with arguments: its plan-cache entry, bound, entering at
// execute.
func runBound(t *testing.T, f *Staged, sess *Session, q string, generic bool, args ...value.Value) (*Result, error) {
	t.Helper()
	p, err := f.Prepare(t.Context(), sess, q)
	if err != nil {
		return nil, err
	}
	req := newRequest(t, sess, q)
	if err := p.Bind(req, args, generic); err != nil {
		return nil, err
	}
	if err := f.Submit(req); err != nil {
		return nil, err
	}
	return req.Wait()
}

// TestPlanCacheCapacity: distinct texts beyond the capacity evict the least
// recently used entries, every result stays correct, and a text used
// between every cold one keeps its entry.
func TestPlanCacheCapacity(t *testing.T) {
	db, _ := seed(t)
	f := NewStaged(db, StagedConfig{})
	defer f.Close()
	sess := db.NewSession()
	const hot = "SELECT owner FROM accounts WHERE id = ?"
	hotEntry, err := f.Prepare(t.Context(), sess, hot)
	if err != nil {
		t.Fatal(err)
	}
	const texts = 5000
	for i := 0; i < texts; i++ {
		q := fmt.Sprintf("SELECT id + %d FROM accounts WHERE id = ?", i)
		res, err := runBound(t, f, sess, q, false, value.NewInt(int64(1+i%3)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(1+i%3+i) {
			t.Fatalf("%s: %v", q, res.Rows)
		}
		res, err = runBound(t, f, sess, hot, false, value.NewInt(2))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Text() != "bob" {
			t.Fatalf("hot text: %v, %v", res, err)
		}
	}
	st := db.PlanCacheStats()
	if st.Entries > planCacheCap {
		t.Fatalf("%d entries cached, capacity %d", st.Entries, planCacheCap)
	}
	if want := int64(texts + 1 - planCacheCap); st.Evictions != want {
		t.Fatalf("evictions = %d, want %d", st.Evictions, want)
	}
	if again, err := f.Prepare(t.Context(), sess, hot); err != nil || again != hotEntry {
		t.Fatal("the hot text's entry was evicted while cold texts churned")
	}
	var counters map[string]int64
	for _, s := range f.Snapshot() {
		if s.Name == "prepare" {
			counters = s.Counters
		}
	}
	if counters["prepare.evictions"] != st.Evictions {
		t.Fatalf("prepare pseudo-stage: %v, want evictions %d", counters, st.Evictions)
	}
}

// TestAdHocRangeCustomPlan: a cached range SELECT run with arguments is
// planned with the values, so the executed plan carries the literal
// statement's estimate — not the generic plan's default selectivity — while
// an explicit prepared statement keeps the generic plan.
func TestAdHocRangeCustomPlan(t *testing.T) {
	db, s := seed(t)
	for i := 4; i <= 200; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO accounts VALUES (%d, 'o%d', %d)", i, i, i))
	}
	if err := db.Analyze("accounts"); err != nil {
		t.Fatal(err)
	}
	f := NewStaged(db, StagedConfig{})
	defer f.Close()
	var ran plan.Node
	run := f.stream
	f.stream = func(ctx context.Context, node plan.Node, vis exec.VisibleFunc) (exec.Cursor, error) {
		ran = node
		return run(ctx, node, vis)
	}
	estimate := func(q string) float64 {
		t.Helper()
		node, err := plan.BindSelect(db.cat, sql.MustParse(q).(*sql.Select), db.cfg.PlanOptions)
		if err != nil {
			t.Fatal(err)
		}
		return node.Rows()
	}
	const q = "SELECT id FROM accounts WHERE balance >= ?"
	literal, generic := estimate("SELECT id FROM accounts WHERE balance >= 190"), estimate(q)
	if literal == generic {
		t.Fatalf("literal and generic estimates are both %v; the test cannot tell them apart", literal)
	}
	sess := db.NewSession()
	for _, c := range []struct {
		generic bool
		want    float64
	}{{false, literal}, {true, generic}} {
		ran = nil
		res, err := runBound(t, f, sess, q, c.generic, value.NewInt(190))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 12 { // 190..200, and carol
			t.Fatalf("generic=%v: %d rows, want 12", c.generic, len(res.Rows))
		}
		if ran == nil {
			t.Fatalf("generic=%v: no plan reached the driver", c.generic)
		}
		if ran.Rows() != c.want {
			t.Fatalf("generic=%v: executed plan estimates %v rows, want %v (literal %v, generic %v)",
				c.generic, ran.Rows(), c.want, literal, generic)
		}
	}
}

// TestGenericPlanPostAggregateParams: a generic plan binds `?` above an
// aggregation — in HAVING and over an aggregate in the select list — and
// keeps apart two aggregates that differ only in which `?` they read. Each
// run returns what the literal text does.
func TestGenericPlanPostAggregateParams(t *testing.T) {
	db, s := seed(t)
	mustExec(t, s, "INSERT INTO accounts VALUES (4, 'ann', 10), (5, 'bob', 20)")
	f := NewStaged(db, StagedConfig{})
	defer f.Close()
	sess := db.NewSession()
	for _, c := range []struct {
		q       string
		args    []value.Value
		literal string
	}{
		{"SELECT owner, COUNT(*) FROM accounts GROUP BY owner HAVING COUNT(*) > ? ORDER BY owner",
			[]value.Value{value.NewInt(1)},
			"SELECT owner, COUNT(*) FROM accounts GROUP BY owner HAVING COUNT(*) > 1 ORDER BY owner"},
		{"SELECT owner, SUM(balance) * ? FROM accounts GROUP BY owner ORDER BY owner",
			[]value.Value{value.NewInt(3)},
			"SELECT owner, SUM(balance) * 3 FROM accounts GROUP BY owner ORDER BY owner"},
		{"SELECT SUM(balance * ?), SUM(balance * ?) FROM accounts",
			[]value.Value{value.NewInt(1), value.NewInt(2)},
			"SELECT SUM(balance * 1), SUM(balance * 2) FROM accounts"},
	} {
		want := mustExec(t, s, c.literal)
		for _, generic := range []bool{true, false} {
			got, err := runBound(t, f, sess, c.q, generic, c.args...)
			if err != nil {
				t.Fatalf("generic=%v: %s: %v", generic, c.q, err)
			}
			if g, w := fmt.Sprint(got.Rows), fmt.Sprint(want.Rows); g != w {
				t.Errorf("generic=%v: %s %v = %s, want %s", generic, c.q, c.args, g, w)
			}
		}
	}
}
