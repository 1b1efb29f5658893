package sql

import (
	"fmt"
	"strconv"
	"strings"

	"stagedb/internal/value"
)

// Parser turns SQL text into Statements.
type Parser struct {
	lex    *Lexer
	tok    Token
	probe  Probe
	nodes  int // AST nodes allocated (probed as the private working set)
	params int // `?` placeholders seen, in parse order
}

// NewParser returns a parser over src.
func NewParser(src string) *Parser {
	return &Parser{lex: NewLexer(src)}
}

// SetProbe routes lexer and parser working-set touches to p for the
// parse-affinity experiment. It must be called before Parse.
func (p *Parser) SetProbe(probe Probe) {
	p.probe = probe
	p.lex.probe = probe
}

// Parse parses a single statement from the input text. A trailing semicolon
// is accepted; trailing garbage is an error.
func Parse(src string) (Statement, error) {
	stmt, _, err := ParseCounted(src)
	return stmt, err
}

// ParseCounted is Parse reporting the number of `?` placeholders seen — the
// count falls out of the parse for free, so callers on the per-statement hot
// path need no CountParams AST walk.
func ParseCounted(src string) (Statement, int, error) {
	p := NewParser(src)
	stmt, err := p.ParseStatement()
	if err != nil {
		return nil, 0, err
	}
	if p.tok.Kind == TokSymbol && p.tok.Text == ";" {
		if err := p.advance(); err != nil {
			return nil, 0, err
		}
	}
	if p.tok.Kind != TokEOF {
		return nil, 0, fmt.Errorf("sql: unexpected %q after statement", p.tok.Text)
	}
	return stmt, p.params, nil
}

// Split cuts a script into statements at its `;` tokens: a `;` inside a
// string literal or a `--` comment is text, not a cut. Each statement's text
// runs from its first token to the end of its last; a segment with no token
// (blank or comment-only) is skipped. When the lexer fails, Split returns
// the statements before the failing one, the failing one's text to the end
// of the script as rest, and the lexer's error.
func Split(src string) (stmts []string, rest string, err error) {
	l := NewLexer(src)
	from, start, end := 0, -1, 0
	for {
		var tok Token
		if tok, err = l.Next(); err != nil {
			if start < 0 {
				start = from
			}
			return stmts, strings.TrimSpace(src[start:]), err
		}
		if tok.Kind != TokEOF && !(tok.Kind == TokSymbol && tok.Text == ";") {
			if start < 0 {
				start = tok.Pos
			}
			end = l.pos
			continue
		}
		if start >= 0 {
			stmts = append(stmts, src[start:end])
		}
		if tok.Kind == TokEOF {
			return stmts, "", nil
		}
		from, start = l.pos, -1
	}
}

// ParseStatement parses one statement, priming the token stream first.
func (p *Parser) ParseStatement() (Statement, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p.parseStatementInner()
}

func (p *Parser) parseStatementInner() (Statement, error) {
	p.code("statement")
	switch {
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	case p.isKeyword("INSERT"):
		return p.parseInsert()
	case p.isKeyword("UPDATE"):
		return p.parseUpdate()
	case p.isKeyword("DELETE"):
		return p.parseDelete()
	case p.isKeyword("CREATE"):
		return p.parseCreate()
	case p.isKeyword("DROP"):
		return p.parseDrop()
	case p.isKeyword("BEGIN"):
		p.node()
		return &Begin{}, p.advance()
	case p.isKeyword("COMMIT"):
		p.node()
		return &Commit{}, p.advance()
	case p.isKeyword("ROLLBACK"), p.isKeyword("ABORT"):
		p.node()
		return &Rollback{}, p.advance()
	}
	return nil, fmt.Errorf("sql: expected statement, found %q", p.tok.Text)
}

// --- helpers ---

func (p *Parser) advance() error {
	tok, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = tok
	return nil
}

func (p *Parser) isKeyword(kw string) bool {
	return p.tok.Kind == TokKeyword && p.tok.Text == kw
}

func (p *Parser) isSymbol(s string) bool {
	return p.tok.Kind == TokSymbol && p.tok.Text == s
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return fmt.Errorf("sql: expected %s, found %q", kw, p.tok.Text)
	}
	return p.advance()
}

func (p *Parser) expectSymbol(s string) error {
	if !p.isSymbol(s) {
		return fmt.Errorf("sql: expected %q, found %q", s, p.tok.Text)
	}
	return p.advance()
}

func (p *Parser) ident() (string, error) {
	if p.tok.Kind != TokIdent {
		return "", fmt.Errorf("sql: expected identifier, found %q", p.tok.Text)
	}
	name := p.tok.Text
	return name, p.advance()
}

// code probes entry into a grammar production: part of the parser's common
// instruction working set.
func (p *Parser) code(production string) {
	if p.probe != nil {
		p.probe("code", codeSlot(production), 256)
	}
}

// node probes one AST node allocation: the query's private working set.
func (p *Parser) node() {
	if p.probe != nil {
		p.probe("ast", p.nodes*64, 64)
		p.nodes++
	}
}

func codeSlot(production string) int {
	var h uint32 = 2166136261
	for i := 0; i < len(production); i++ {
		h = (h ^ uint32(production[i])) * 16777619
	}
	return int(h%64) * 256
}

// --- DDL ---

func (p *Parser) parseCreate() (Statement, error) {
	p.code("create")
	if err := p.advance(); err != nil {
		return nil, err
	}
	switch {
	case p.isKeyword("TABLE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var cols []ColumnDef
		for {
			colName, err := p.ident()
			if err != nil {
				return nil, err
			}
			if p.tok.Kind != TokIdent && p.tok.Kind != TokKeyword {
				return nil, fmt.Errorf("sql: expected type after column %q", colName)
			}
			typ, err := value.ParseType(p.tok.Text)
			if err != nil {
				return nil, err
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			// Optional (size) after VARCHAR etc.
			if p.isSymbol("(") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				if p.tok.Kind != TokInt {
					return nil, fmt.Errorf("sql: expected size in type")
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
			}
			col := ColumnDef{Name: colName, Type: typ}
			if p.isKeyword("PRIMARY") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expectKeyword("KEY"); err != nil {
					return nil, err
				}
				col.PrimaryKey = true
			}
			p.node()
			cols = append(cols, col)
			if p.isSymbol(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		p.node()
		return &CreateTable{Name: name, Columns: cols}, nil

	case p.isKeyword("INDEX"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		p.node()
		return &CreateIndex{Name: name, Table: table, Column: col}, nil
	}
	return nil, fmt.Errorf("sql: expected TABLE or INDEX after CREATE")
}

func (p *Parser) parseDrop() (Statement, error) {
	p.code("drop")
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	p.node()
	return &DropTable{Name: name}, nil
}

// --- DML ---

func (p *Parser) parseInsert() (Statement, error) {
	p.code("insert")
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.isSymbol("(") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if p.isSymbol(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.isSymbol(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.isSymbol(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	p.node()
	return ins, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.code("update")
	if err := p.advance(); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	upd := &Update{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Sets = append(upd.Sets, Assignment{Column: col, Value: e})
		if p.isSymbol(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if p.isKeyword("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		upd.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	p.node()
	return upd, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.code("delete")
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.isKeyword("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		var err error
		del.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	p.node()
	return del, nil
}

// --- SELECT ---

func (p *Parser) parseSelect() (Statement, error) {
	p.code("select")
	if err := p.advance(); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}
	if p.isKeyword("DISTINCT") {
		sel.Distinct = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	// Projection list.
	for {
		if p.isSymbol("*") {
			sel.Items = append(sel.Items, SelectItem{Star: true})
			if err := p.advance(); err != nil {
				return nil, err
			}
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.isKeyword("AS") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				alias, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.tok.Kind == TokIdent {
				item.Alias = p.tok.Text
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			sel.Items = append(sel.Items, item)
		}
		p.node()
		if p.isSymbol(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	// FROM list.
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, ref)
		if p.isSymbol(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	// JOIN clauses.
	for p.isKeyword("JOIN") || p.isKeyword("INNER") || p.isKeyword("LEFT") {
		if p.isKeyword("INNER") || p.isKeyword("LEFT") {
			if p.isKeyword("LEFT") {
				return nil, fmt.Errorf("sql: LEFT JOIN not supported")
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectKeyword("JOIN"); err != nil {
			return nil, err
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.node()
		sel.Joins = append(sel.Joins, Join{Table: ref, On: cond})
	}
	if p.isKeyword("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		var err error
		sel.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.isKeyword("GROUP") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.isSymbol(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.isKeyword("HAVING") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		var err error
		sel.Having, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.isKeyword("ORDER") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			lit, ok := e.(*Literal)
			item := OrderItem{Expr: e, Position: ok && lit.Val.Type() == value.Int}
			if p.isKeyword("ASC") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if p.isKeyword("DESC") {
				item.Desc = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.isSymbol(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.isKeyword("LIMIT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		sel.Limit = n
	}
	if p.isKeyword("OFFSET") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		sel.Offset = n
	}
	p.node()
	return sel, nil
}

func (p *Parser) intLiteral() (int, error) {
	if p.tok.Kind != TokInt {
		return 0, fmt.Errorf("sql: expected integer, found %q", p.tok.Text)
	}
	n, err := strconv.Atoi(p.tok.Text)
	if err != nil {
		return 0, err
	}
	return n, p.advance()
}

func (p *Parser) parseTableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.isKeyword("AS") {
		if err := p.advance(); err != nil {
			return TableRef{}, err
		}
		alias, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.tok.Kind == TokIdent {
		ref.Alias = p.tok.Text
		if err := p.advance(); err != nil {
			return TableRef{}, err
		}
	}
	return ref, nil
}

// --- expressions (precedence climbing) ---

// parseExpr parses OR-level expressions.
func (p *Parser) parseExpr() (Expr, error) {
	p.code("expr")
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("OR") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		p.node()
		left = &Binary{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		p.node()
		left = &Binary{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.isKeyword("NOT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		p.node()
		return &Unary{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Postfix predicates.
	switch {
	case p.isKeyword("BETWEEN"), p.isKeyword("NOT"):
		not := false
		if p.isKeyword("NOT") {
			// Could be NOT BETWEEN / NOT IN / NOT LIKE; otherwise backtrack
			// is impossible, so require one of those.
			if err := p.advance(); err != nil {
				return nil, err
			}
			not = true
			if !p.isKeyword("BETWEEN") && !p.isKeyword("IN") && !p.isKeyword("LIKE") {
				return nil, fmt.Errorf("sql: expected BETWEEN, IN or LIKE after NOT")
			}
		}
		switch {
		case p.isKeyword("BETWEEN"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			p.node()
			return &Between{E: left, Lo: lo, Hi: hi, Not: not}, nil
		case p.isKeyword("IN"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			var list []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				if p.isSymbol(",") {
					if err := p.advance(); err != nil {
						return nil, err
					}
					continue
				}
				break
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			p.node()
			return &InList{E: left, List: list, Not: not}, nil
		case p.isKeyword("LIKE"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			p.node()
			return &LikeExpr{E: left, Pattern: pat, Not: not}, nil
		}
	case p.isKeyword("IN"), p.isKeyword("LIKE"):
		return p.parsePostfixPredicate(left, false)
	case p.isKeyword("IS"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		not := false
		if p.isKeyword("NOT") {
			not = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		p.node()
		return &IsNull{E: left, Not: not}, nil
	}
	for p.tok.Kind == TokSymbol {
		op := p.tok.Text
		switch op {
		case "=", "!=", "<>", "<", "<=", ">", ">=":
			if op == "<>" {
				op = "!="
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			p.node()
			left = &Binary{Op: op, L: left, R: right}
			continue
		}
		break
	}
	return left, nil
}

// parsePostfixPredicate handles IN/LIKE reached without a preceding NOT.
func (p *Parser) parsePostfixPredicate(left Expr, not bool) (Expr, error) {
	switch {
	case p.isKeyword("IN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.isSymbol(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		p.node()
		return &InList{E: left, List: list, Not: not}, nil
	case p.isKeyword("LIKE"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		p.node()
		return &LikeExpr{E: left, Pattern: pat, Not: not}, nil
	}
	return left, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.isSymbol("+") || p.isSymbol("-") {
		op := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		p.node()
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isSymbol("*") || p.isSymbol("/") || p.isSymbol("%") {
		op := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.node()
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.isSymbol("-") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative literals.
		if lit, ok := e.(*Literal); ok {
			switch lit.Val.Type() {
			case value.Int:
				return &Literal{Val: value.NewInt(-lit.Val.Int())}, nil
			case value.Float:
				return &Literal{Val: value.NewFloat(-lit.Val.Float())}, nil
			}
		}
		p.node()
		return &Unary{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	p.code("primary")
	switch p.tok.Kind {
	case TokInt:
		n, err := strconv.ParseInt(p.tok.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad integer %q", p.tok.Text)
		}
		p.node()
		return &Literal{Val: value.NewInt(n)}, p.advance()
	case TokFloat:
		f, err := strconv.ParseFloat(p.tok.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad float %q", p.tok.Text)
		}
		p.node()
		return &Literal{Val: value.NewFloat(f)}, p.advance()
	case TokString:
		v := p.tok.Text
		p.node()
		return &Literal{Val: value.NewText(v)}, p.advance()
	case TokKeyword:
		switch p.tok.Text {
		case "NULL":
			p.node()
			return &Literal{Val: value.NewNull()}, p.advance()
		case "TRUE":
			p.node()
			return &Literal{Val: value.NewBool(true)}, p.advance()
		case "FALSE":
			p.node()
			return &Literal{Val: value.NewBool(false)}, p.advance()
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			name := p.tok.Text
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			call := &Call{Name: name}
			if p.isSymbol("*") {
				call.Star = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = []Expr{arg}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			p.node()
			return call, nil
		}
		return nil, fmt.Errorf("sql: unexpected keyword %q in expression", p.tok.Text)
	case TokIdent:
		name := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isSymbol(".") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			p.node()
			return &ColumnRef{Table: name, Name: col}, nil
		}
		p.node()
		return &ColumnRef{Name: name}, nil
	case TokSymbol:
		if p.tok.Text == "?" {
			idx := p.params
			p.params++
			p.node()
			return &Placeholder{Idx: idx}, p.advance()
		}
		if p.tok.Text == "(" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("sql: unexpected %q in expression", p.tok.Text)
}

// MustParse parses src and panics on error; it is a test/example helper.
func MustParse(src string) Statement {
	stmt, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("MustParse(%s): %v", strings.TrimSpace(src), err))
	}
	return stmt
}
