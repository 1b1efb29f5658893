package sql

import (
	"slices"
	"strings"
	"testing"

	"stagedb/internal/value"
)

func TestLexerBasics(t *testing.T) {
	l := NewLexer("SELECT a, b2 FROM t WHERE x >= 1.5 AND name = 'it''s' -- comment\n LIMIT 3;")
	var kinds []TokenKind
	var texts []string
	for {
		tok, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == TokEOF {
			break
		}
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "b2", "FROM", "t", "WHERE", "x", ">=", "1.5", "AND", "name", "=", "it's", "LIMIT", "3", ";"}
	if len(texts) != len(want) {
		t.Fatalf("tokens %v, want %v", texts, want)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q (all: %v)", i, texts[i], want[i], texts)
		}
	}
	if kinds[0] != TokKeyword || kinds[1] != TokIdent || kinds[9] != TokFloat || kinds[13] != TokString {
		t.Fatalf("kinds wrong: %v", kinds)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "1.2.3", "@", "1e"} {
		l := NewLexer(src)
		var err error
		for err == nil {
			var tok Token
			tok, err = l.Next()
			if err == nil && tok.Kind == TokEOF {
				t.Fatalf("input %q should fail to lex", src)
			}
		}
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt := MustParse("CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(20), score FLOAT, ok BOOL)")
	ct, ok := stmt.(*CreateTable)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if ct.Name != "users" || len(ct.Columns) != 4 {
		t.Fatalf("bad create: %+v", ct)
	}
	if !ct.Columns[0].PrimaryKey || ct.Columns[0].Type != value.Int {
		t.Fatalf("bad pk column: %+v", ct.Columns[0])
	}
	if ct.Columns[1].Type != value.Text || ct.Columns[2].Type != value.Float || ct.Columns[3].Type != value.Bool {
		t.Fatalf("bad types: %+v", ct.Columns)
	}
}

func TestParseCreateIndexAndDrop(t *testing.T) {
	ci := MustParse("CREATE INDEX idx_name ON users (name)").(*CreateIndex)
	if ci.Name != "idx_name" || ci.Table != "users" || ci.Column != "name" {
		t.Fatalf("bad index: %+v", ci)
	}
	dt := MustParse("DROP TABLE users").(*DropTable)
	if dt.Name != "users" {
		t.Fatalf("bad drop: %+v", dt)
	}
}

func TestParseInsert(t *testing.T) {
	ins := MustParse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)").(*Insert)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("bad insert: %+v", ins)
	}
	lit := ins.Rows[1][1].(*Literal)
	if !lit.Val.IsNull() {
		t.Fatalf("want NULL literal, got %v", lit.Val)
	}
	ins2 := MustParse("INSERT INTO t VALUES (-5)").(*Insert)
	if ins2.Rows[0][0].(*Literal).Val.Int() != -5 {
		t.Fatal("negative literal folding failed")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	upd := MustParse("UPDATE t SET a = a + 1, b = 'z' WHERE id = 7").(*Update)
	if len(upd.Sets) != 2 || upd.Where == nil {
		t.Fatalf("bad update: %+v", upd)
	}
	del := MustParse("DELETE FROM t WHERE x < 0").(*Delete)
	if del.Table != "t" || del.Where == nil {
		t.Fatalf("bad delete: %+v", del)
	}
	del2 := MustParse("DELETE FROM t").(*Delete)
	if del2.Where != nil {
		t.Fatal("where should be nil")
	}
}

func TestParseSelectFull(t *testing.T) {
	stmt := MustParse(`SELECT DISTINCT t.a, COUNT(*) AS n, SUM(b) total
		FROM t1 AS t, t2
		WHERE t.a > 5 AND t2.c BETWEEN 1 AND 10
		GROUP BY t.a HAVING COUNT(*) > 2
		ORDER BY n DESC, t.a LIMIT 10 OFFSET 5`)
	sel := stmt.(*Select)
	if !sel.Distinct || len(sel.Items) != 3 || len(sel.From) != 2 {
		t.Fatalf("bad select: %+v", sel)
	}
	if sel.Items[1].Alias != "n" || sel.Items[2].Alias != "total" {
		t.Fatalf("aliases: %+v", sel.Items)
	}
	if sel.From[0].Alias != "t" || sel.From[0].Table != "t1" {
		t.Fatalf("from: %+v", sel.From)
	}
	if len(sel.GroupBy) != 1 || sel.Having == nil || len(sel.OrderBy) != 2 {
		t.Fatalf("group/having/order: %+v", sel)
	}
	if !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Fatalf("order dirs: %+v", sel.OrderBy)
	}
	if sel.Limit != 10 || sel.Offset != 5 {
		t.Fatalf("limit/offset: %d %d", sel.Limit, sel.Offset)
	}
}

func TestParseJoin(t *testing.T) {
	sel := MustParse("SELECT * FROM a JOIN b ON a.id = b.aid INNER JOIN c ON b.id = c.bid").(*Select)
	if len(sel.Joins) != 2 {
		t.Fatalf("joins: %+v", sel.Joins)
	}
	if sel.Joins[0].Table.Table != "b" || sel.Joins[1].Table.Table != "c" {
		t.Fatalf("join tables: %+v", sel.Joins)
	}
	if sel.Items[0].Star != true {
		t.Fatal("star projection")
	}
}

func TestParsePrecedence(t *testing.T) {
	sel := MustParse("SELECT * FROM t WHERE a + 2 * b = 7 OR NOT c AND d").(*Select)
	// Expect: (((a + (2*b)) = 7) OR ((NOT c) AND d))
	or := sel.Where.(*Binary)
	if or.Op != "OR" {
		t.Fatalf("top op %s", or.Op)
	}
	eq := or.L.(*Binary)
	if eq.Op != "=" {
		t.Fatalf("left of OR is %s", eq.Op)
	}
	add := eq.L.(*Binary)
	if add.Op != "+" {
		t.Fatalf("lhs %s", add.Op)
	}
	if add.R.(*Binary).Op != "*" {
		t.Fatal("* should bind tighter than +")
	}
	and := or.R.(*Binary)
	if and.Op != "AND" {
		t.Fatalf("right of OR is %s", and.Op)
	}
	if _, ok := and.L.(*Unary); !ok {
		t.Fatal("NOT should bind tighter than AND")
	}
}

func TestParsePredicates(t *testing.T) {
	sel := MustParse("SELECT * FROM t WHERE a IN (1,2,3) AND b NOT LIKE 'x%' AND c IS NOT NULL AND d NOT BETWEEN 1 AND 2").(*Select)
	var inCnt, likeCnt, nullCnt, btwCnt int
	Walk(sel.Where, func(e Expr) bool {
		switch x := e.(type) {
		case *InList:
			inCnt++
			if x.Not || len(x.List) != 3 {
				t.Fatalf("in: %+v", x)
			}
		case *LikeExpr:
			likeCnt++
			if !x.Not {
				t.Fatal("like should be NOT")
			}
		case *IsNull:
			nullCnt++
			if !x.Not {
				t.Fatal("is null should be NOT")
			}
		case *Between:
			btwCnt++
			if !x.Not {
				t.Fatal("between should be NOT")
			}
		}
		return true
	})
	if inCnt != 1 || likeCnt != 1 || nullCnt != 1 || btwCnt != 1 {
		t.Fatalf("predicate counts: %d %d %d %d", inCnt, likeCnt, nullCnt, btwCnt)
	}
}

func TestParseTransactions(t *testing.T) {
	if _, ok := MustParse("BEGIN").(*Begin); !ok {
		t.Fatal("BEGIN")
	}
	if _, ok := MustParse("COMMIT;").(*Commit); !ok {
		t.Fatal("COMMIT")
	}
	if _, ok := MustParse("ROLLBACK").(*Rollback); !ok {
		t.Fatal("ROLLBACK")
	}
	if _, ok := MustParse("ABORT").(*Rollback); !ok {
		t.Fatal("ABORT")
	}
}

// TestParseAllScript splits a multi-statement script and parses each
// statement.
func TestParseAllScript(t *testing.T) {
	parts, rest, err := Split(`
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1);
		SELECT * FROM t;
	`)
	if err != nil || rest != "" {
		t.Fatal(rest, err)
	}
	if len(parts) != 3 {
		t.Fatalf("got %d statements", len(parts))
	}
	for _, part := range parts {
		if _, err := Parse(part); err != nil {
			t.Fatalf("%q: %v", part, err)
		}
	}
}

// splitCases are scripts and the statements Split cuts them into; they
// also seed FuzzSplit.
var splitCases = []struct {
	src  string
	want []string
}{
	{"INSERT INTO t VALUES ('a;b'); SELECT 1 FROM t;", []string{"INSERT INTO t VALUES ('a;b')", "SELECT 1 FROM t"}},
	// A ; or ' inside a line comment neither cuts nor opens a string.
	{"SELECT 1 FROM t -- trailing; don't split\nWHERE id = 2; SELECT 2 FROM t;",
		[]string{"SELECT 1 FROM t -- trailing; don't split\nWHERE id = 2", "SELECT 2 FROM t"}},
	// A doubled quote is an escaped quote and survives verbatim.
	{"INSERT INTO t VALUES ('it''s; fine'); SELECT 1 FROM t;", []string{"INSERT INTO t VALUES ('it''s; fine')", "SELECT 1 FROM t"}},
	// Blank and comment-only segments are not statements.
	{"-- nothing here;\n", nil},
	{"SELECT 1 FROM t;\n-- done\n", []string{"SELECT 1 FROM t"}},
	{" ; ;; -- x\n;", nil},
	{"\n\t\tCREATE TABLE t (a INT);\n\t\tINSERT INTO t VALUES (1);\n\t\tSELECT * FROM t;\n\t",
		[]string{"CREATE TABLE t (a INT)", "INSERT INTO t VALUES (1)", "SELECT * FROM t"}},
	{"-- lead\nSELECT 1 FROM t", []string{"SELECT 1 FROM t"}},
}

func TestSplitScript(t *testing.T) {
	for _, c := range splitCases {
		got, rest, err := Split(c.src)
		if err != nil || rest != "" || !slices.Equal(got, c.want) {
			t.Errorf("Split(%q) = %q, %q, %v; want %q", c.src, got, rest, err, c.want)
		}
		for _, stmt := range got {
			if _, err := Parse(stmt); err != nil {
				t.Errorf("Split(%q): %q does not parse: %v", c.src, stmt, err)
			}
		}
	}
	// A statement that does not lex ends the split: the ones before it come
	// back, and it is the rest.
	got, rest, err := Split("SELECT 1 FROM t; -- c\nSELECT 'open; SELECT 2 FROM t")
	if !slices.Equal(got, []string{"SELECT 1 FROM t"}) || rest != "SELECT 'open; SELECT 2 FROM t" || err == nil {
		t.Errorf("malformed split = %q, %q, %v", got, rest, err)
	}
	if got, rest, err = Split("SELECT 1 FROM t; SELECT # FROM t; SELECT 2 FROM t"); len(got) != 1 || rest != "SELECT # FROM t; SELECT 2 FROM t" || err == nil {
		t.Errorf("bad character split = %q, %q, %v", got, rest, err)
	}
}

// FuzzSplit holds Split and Parse to their contracts on any input: neither
// panics, and each statement Split returns lexes cleanly and holds no `;`
// token.
func FuzzSplit(f *testing.F) {
	for _, c := range splitCases {
		f.Add(c.src)
	}
	f.Add("SELECT 'open; SELECT 2")
	f.Add("SELECT 1e; SELECT 1.2.3; SELECT a <> b FROM t WHERE x != 'y''z' -- ;")
	f.Fuzz(func(t *testing.T, src string) {
		stmts, rest, err := Split(src)
		if err == nil && rest != "" {
			t.Fatalf("rest %q without an error", rest)
		}
		for _, stmt := range stmts {
			l := NewLexer(stmt)
			for {
				tok, err := l.Next()
				if err != nil {
					t.Fatalf("statement %q does not lex: %v", stmt, err)
				}
				if tok.Kind == TokEOF {
					break
				}
				if tok.Kind == TokSymbol && tok.Text == ";" {
					t.Fatalf("statement %q holds a ; token", stmt)
				}
			}
			_, _ = Parse(stmt)
		}
	})
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"INSERT INTO t",
		"CREATE TABLE t",
		"CREATE TABLE t (a BLOBBY)",
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t; garbage",
		"UPDATE t SET",
		"SELECT * FROM a LEFT JOIN b ON a.x = b.x",
		"SELECT * FROM t WHERE a NOT 5",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) should fail", src)
		}
	}
}

func TestExprString(t *testing.T) {
	sel := MustParse("SELECT * FROM t WHERE a + 1 = 2 AND b LIKE 'x%'").(*Select)
	s := sel.Where.String()
	if !strings.Contains(s, "(a + 1)") || !strings.Contains(s, "LIKE") {
		t.Fatalf("String() = %q", s)
	}
}

func TestHasAggregate(t *testing.T) {
	sel := MustParse("SELECT a + SUM(b) FROM t").(*Select)
	if !HasAggregate(sel.Items[0].Expr) {
		t.Fatal("SUM should be detected")
	}
	sel2 := MustParse("SELECT a + b FROM t").(*Select)
	if HasAggregate(sel2.Items[0].Expr) {
		t.Fatal("no aggregate here")
	}
}

func TestProbeReceivesTouches(t *testing.T) {
	regions := map[string]int{}
	p := NewParser("SELECT a, b FROM t WHERE a > 1")
	p.SetProbe(func(region string, off, size int) { regions[region]++ })
	if _, err := p.ParseStatement(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"input", "keywords", "code", "ast"} {
		if regions[r] == 0 {
			t.Fatalf("region %q received no touches: %v", r, regions)
		}
	}
}

func TestParseIdentifierCaseKept(t *testing.T) {
	sel := MustParse("SELECT MyCol FROM MyTable").(*Select)
	if sel.From[0].Table != "MyTable" {
		t.Fatalf("table name case: %q", sel.From[0].Table)
	}
	if sel.Items[0].Expr.(*ColumnRef).Name != "MyCol" {
		t.Fatal("column name case")
	}
}

func TestParsePlaceholders(t *testing.T) {
	stmt := MustParse("SELECT a FROM t WHERE a = ? AND b BETWEEN ? AND ? OR name LIKE ?")
	if n := CountParams(stmt); n != 4 {
		t.Fatalf("CountParams = %d, want 4", n)
	}
	// Ordinals are assigned in parse order.
	var idxs []int
	walkStatement(stmt, func(e Expr) {
		Walk(e, func(x Expr) bool {
			if p, ok := x.(*Placeholder); ok {
				idxs = append(idxs, p.Idx)
			}
			return true
		})
	})
	if len(idxs) != 4 || idxs[0] != 0 || idxs[3] != 3 {
		t.Fatalf("placeholder ordinals: %v", idxs)
	}

	ins := MustParse("INSERT INTO t VALUES (?, ?), (3, ?)")
	if n := CountParams(ins); n != 3 {
		t.Fatalf("INSERT CountParams = %d, want 3", n)
	}
}

func TestBindParams(t *testing.T) {
	stmt := MustParse("SELECT a FROM t WHERE a = ? AND b = 2")
	bound, err := BindParams(stmt, []value.Value{value.NewInt(42)})
	if err != nil {
		t.Fatal(err)
	}
	if CountParams(bound) != 0 {
		t.Fatal("BindParams left placeholders")
	}
	// The original statement keeps its placeholder (prepared ASTs are
	// shared; substitution must clone).
	if CountParams(stmt) != 1 {
		t.Fatal("BindParams mutated the input statement")
	}
	if _, err := BindParams(stmt, nil); err == nil {
		t.Fatal("missing argument must fail")
	}
	if _, err := BindParams(stmt, []value.Value{value.NewInt(1), value.NewInt(2)}); err == nil {
		t.Fatal("extra argument must fail")
	}
}
