package exec

// sort_oracle_test.go checks every ordering path — the in-memory sort, a
// spilled sort merged in one pass, a spilled sort whose runs cascade, and
// Top-N — against a reference stable sort of the input, over seeded random
// rows whose key columns exercise the prefix entries (Int with heavy
// duplicates and NULLs, Int and Float mixed, Text with shared prefixes), both
// item layouts (plain-column keys read in place, a computed key's tuple) and
// DESC. Rows carry a unique arrival stamp, so a tie broken out of arrival
// order shows as a mismatch.
//
//	STAGEDB_SEED=<seed> go test ./internal/exec -run TestSortOrderOracle

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stagedb/internal/plan"
	"stagedb/internal/value"
)

// oracleRows builds n rows (dup INT, mixed INT|FLOAT, txt TEXT, seq INT):
// dup has 20 values and NULLs, mixed interleaves integral Ints and Floats
// that tie them, txt shares 8-byte prefixes and embeds zero and high bytes.
func oracleRows(rng *rand.Rand, n int) []value.Row {
	rows := make([]value.Row, 0, n)
	for i := 0; i < n; i++ {
		dup := value.NewInt(int64(rng.Intn(20)) - 5)
		if rng.Intn(8) == 0 {
			dup = value.NewNull()
		}
		var mixed value.Value
		switch rng.Intn(5) {
		case 0:
			mixed = value.NewNull()
		case 1, 2:
			mixed = value.NewInt(int64(rng.Intn(30)))
		default:
			mixed = value.NewFloat(float64(rng.Intn(60)) / 2)
		}
		txt := value.NewNull()
		if rng.Intn(10) != 0 {
			tail := []byte{byte('a' + rng.Intn(3)), 0, 0xff}
			txt = value.NewText(fmt.Sprintf("prefix%02d", rng.Intn(3)) + string(tail[:rng.Intn(4)]))
		}
		rows = append(rows, value.Row{dup, mixed, txt, value.NewInt(int64(i))})
	}
	return rows
}

// referenceSort is the oracle: a stable sort of a copy of rows by keys,
// evaluated per comparison.
func referenceSort(t *testing.T, rows []value.Row, keys []plan.SortKey) []value.Row {
	t.Helper()
	eval := make([]plan.CompiledExpr, len(keys))
	for j, k := range keys {
		eval[j] = plan.Compile(k.Expr)
	}
	out := slices.Clone(rows)
	var sortErr error
	slices.SortStableFunc(out, func(a, b value.Row) int {
		for j, k := range keys {
			av, err1 := eval[j](a)
			bv, err2 := eval[j](b)
			c, err3 := value.Compare(av, bv)
			for _, err := range []error{err1, err2, err3} {
				if err != nil && sortErr == nil {
					sortErr = err
				}
			}
			if c != 0 {
				if k.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	if sortErr != nil {
		t.Fatal(sortErr)
	}
	return out
}

// mod7 is a computed key: an item then carries its key tuple.
func mod7(col int) plan.Expr {
	return &plan.Binary{Op: "%", L: &plan.Column{Idx: col}, R: &plan.Const{Val: value.NewInt(7)}}
}

func TestSortOrderOracle(t *testing.T) {
	const n = 16_000
	cases := []struct {
		name string
		keys []plan.SortKey
	}{
		{"int-dups", colKeys(0)},
		{"int-dups-desc", colKeys(-1)},
		{"int-desc-text", colKeys(-1, 2)},
		{"mixed-int-float", colKeys(1)},
		{"mixed-desc-int", colKeys(-2, 0)},
		{"text", colKeys(2)},
		{"text-desc-int", colKeys(-3, -1)},
		{"computed", []plan.SortKey{{Expr: mod7(0)}}},
		{"computed-desc-text", []plan.SortKey{{Expr: mod7(0), Desc: true}, {Expr: &plan.Column{Idx: 2}}}},
		{"text-computed", []plan.SortKey{{Expr: &plan.Column{Idx: 2}}, {Expr: mod7(0), Desc: true}}},
	}
	for _, seed := range testSeeds(t, 7) {
		rng := seededRNG(t, seed)
		rows := oracleRows(rng, n)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("seed%d/%s", seed, tc.name), func(t *testing.T) {
				want := referenceSort(t, rows, tc.keys)
				run := func(what string, workMem int64) SpillStats {
					t.Helper()
					sm := &SpillMetrics{}
					op := newSortOp(newReplay(rows), tc.keys, workMem, sm)
					requireSameOrder(t, drainOpen(t, op), want, what)
					if err := op.Close(); err != nil {
						t.Fatal(err)
					}
					st := sm.Stats()
					if st.FilesLive() != 0 {
						t.Fatalf("%s: %d run files left behind", what, st.FilesLive())
					}
					return st
				}
				if st := run("in-memory sort", 1<<30); st.SortSpills != 0 {
					t.Fatalf("in-memory sort spilled: %+v", st)
				}
				// About 16 runs: one heap merge, no cascade.
				if st := run("single-merge sort", int64(n)*190/16); st.SortRuns < 2 || st.SortRuns > mergeFanIn || st.MergePasses != 0 {
					t.Fatalf("want 2..%d runs and no cascade: %+v", mergeFanIn, st)
				}
				if st := run("cascading sort", MinWorkMem); st.SortRuns <= mergeFanIn || st.MergePasses == 0 {
					t.Fatalf("want more than %d runs and a cascade: %+v", mergeFanIn, st)
				}
				for _, lim := range []struct{ n, offset int }{{1, 0}, {25, 0}, {300, 40}} {
					sm := &SpillMetrics{}
					op := newTopNOp(newReplay(rows), tc.keys, lim.n, lim.offset, sm)
					requireSameOrder(t, drainOpen(t, op), want[lim.offset:lim.offset+lim.n],
						fmt.Sprintf("top-%d offset %d", lim.n, lim.offset))
					if err := op.Close(); err != nil {
						t.Fatal(err)
					}
					if st := sm.Stats(); st.FilesLive() != 0 {
						t.Fatalf("top-n left %d files", st.FilesLive())
					}
				}
			})
		}
	}
}

// TestKeyPrefixOrder: a prefix never orders two values of one type against
// value.Compare, equal values share a prefix, NULL takes the lowest, and DESC
// reverses all of it.
func TestKeyPrefixOrder(t *testing.T) {
	rng := seededRNG(t, 5)
	ints := []value.Value{value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64), value.NewInt(0), value.NewInt(-1), value.NewInt(1)}
	floats := []value.Value{value.NewFloat(math.Inf(-1)), value.NewFloat(math.Inf(1)), value.NewFloat(0),
		value.NewFloat(math.Copysign(0, -1)), value.NewFloat(-math.SmallestNonzeroFloat64),
		value.NewFloat(math.SmallestNonzeroFloat64), value.NewFloat(-1e300), value.NewFloat(1e300)}
	texts := []value.Value{value.NewText(""), value.NewText("\x00"), value.NewText("abcdefgh"),
		value.NewText("abcdefgh\x00"), value.NewText("abcdefghz"), value.NewText("\xff\xfe"), value.NewText("abc")}
	for range 300 {
		ints = append(ints, value.NewInt(rng.Int63()-rng.Int63()))
		floats = append(floats, value.NewFloat(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20))))
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = "a\x00\xffz"[rng.Intn(4)]
		}
		texts = append(texts, value.NewText(string(b)))
	}
	for _, class := range [][]value.Value{ints, floats, texts} {
		class = append(class, value.NewNull())
		for _, desc := range []bool{false, true} {
			for _, a := range class {
				for _, b := range class {
					c, err := value.Compare(a, b)
					if err != nil {
						t.Fatal(err)
					}
					if desc {
						c = -c
					}
					pa, pb := keyPrefix(a, desc), keyPrefix(b, desc)
					if c == 0 && pa != pb || c < 0 && pa > pb || pa < pb && c >= 0 {
						t.Fatalf("desc=%v: %s vs %s compare %d, prefixes %#x vs %#x", desc, a, b, c, pa, pb)
					}
				}
			}
		}
	}
	for _, tc := range []struct {
		vals []value.Value
		want bool
	}{
		{[]value.Value{value.NewInt(1), value.NewNull(), value.NewInt(2)}, true},
		{[]value.Value{value.NewText("a"), value.NewNull()}, true},
		{[]value.Value{value.NewNull()}, true},
		{[]value.Value{value.NewInt(1), value.NewFloat(1.5)}, false},
		{[]value.Value{value.NewFloat(1.5), value.NewFloat(math.NaN())}, false},
		{[]value.Value{value.NewBool(true)}, false},
	} {
		if got := hasKeyPrefix(tc.vals, 0, 1); got != tc.want {
			t.Fatalf("hasKeyPrefix(%v) = %v, want %v", tc.vals, got, tc.want)
		}
	}
}
