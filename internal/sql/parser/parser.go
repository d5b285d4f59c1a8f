// Package parser implements a recursive-descent parser for SamzaSQL's
// dialect (§3): standard SQL SELECT with the STREAM keyword, joins with
// windowed ON conditions, GROUP BY with HOP/TUMBLE calls, analytic functions
// with OVER windows, CREATE VIEW, and INSERT INTO ... SELECT.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"samzasql/internal/sql/ast"
	"samzasql/internal/sql/lexer"
	"samzasql/internal/sql/token"
)

// Error is a parse error with position.
type Error struct {
	Pos token.Position
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("parse error at %s: %s", e.Pos, e.Msg) }

// Parser consumes a token stream.
type Parser struct {
	toks []token.Token
	pos  int
}

// New builds a parser over src, running the lexer eagerly.
func New(src string) (*Parser, error) {
	toks, err := lexer.New(src).Tokens()
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks}, nil
}

// Parse parses a single statement from src (a trailing semicolon is
// allowed).
func Parse(src string) (ast.Statement, error) {
	p, err := New(src)
	if err != nil {
		return nil, err
	}
	stmt, err := p.ParseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(token.SEMICOLON)
	if !p.at(token.EOF) {
		return nil, p.errorf("unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

func (p *Parser) peek() token.Token { return p.toks[p.pos] }

func (p *Parser) peekAt(n int) token.Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *Parser) at(k token.Kind) bool { return p.peek().Kind == k }

func (p *Parser) advance() token.Token {
	t := p.toks[p.pos]
	if t.Kind != token.EOF {
		p.pos++
	}
	return t
}

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) (token.Token, error) {
	if p.at(k) {
		return p.advance(), nil
	}
	return token.Token{}, p.errorf("expected %s, found %s", k, p.peek())
}

func (p *Parser) errorf(format string, args ...any) error {
	return &Error{Pos: p.peek().Pos, Msg: fmt.Sprintf(format, args...)}
}

// ParseStatement parses one statement.
func (p *Parser) ParseStatement() (ast.Statement, error) {
	switch p.peek().Kind {
	case token.SELECT:
		return p.parseSelect()
	case token.CREATE:
		return p.parseCreateView()
	case token.INSERT:
		return p.parseInsert()
	default:
		return nil, p.errorf("expected SELECT, CREATE VIEW or INSERT, found %s", p.peek())
	}
}

func (p *Parser) parseCreateView() (ast.Statement, error) {
	if _, err := p.expect(token.CREATE); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.VIEW); err != nil {
		return nil, err
	}
	name, err := p.parseName()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.accept(token.LPAREN) {
		for {
			c, err := p.parseName()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if !p.accept(token.COMMA) {
				break
			}
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(token.AS); err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &ast.CreateViewStmt{Name: name, Columns: cols, Select: sel}, nil
}

func (p *Parser) parseInsert() (ast.Statement, error) {
	if _, err := p.expect(token.INSERT); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.INTO); err != nil {
		return nil, err
	}
	target, err := p.parseName()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.accept(token.LPAREN) {
		for {
			c, err := p.parseName()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if !p.accept(token.COMMA) {
				break
			}
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &ast.InsertStmt{Target: target, Columns: cols, Select: sel}, nil
}

// parseName accepts an identifier or quoted identifier.
func (p *Parser) parseName() (string, error) {
	if p.at(token.IDENT) || p.at(token.QIDENT) {
		return p.advance().Text, nil
	}
	return "", p.errorf("expected identifier, found %s", p.peek())
}

func (p *Parser) parseSelect() (*ast.SelectStmt, error) {
	if _, err := p.expect(token.SELECT); err != nil {
		return nil, err
	}
	sel := &ast.SelectStmt{}
	if p.accept(token.STREAM) {
		sel.Stream = true
	}
	if p.accept(token.DISTINCT) {
		sel.Distinct = true
	} else {
		p.accept(token.ALL)
	}
	items, err := p.parseSelectList()
	if err != nil {
		return nil, err
	}
	sel.Items = items

	if p.accept(token.FROM) {
		from, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = from
	}
	if p.accept(token.WHERE) {
		w, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.at(token.GROUP) {
		p.advance()
		if _, err := p.expect(token.BY); err != nil {
			return nil, err
		}
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(token.COMMA) {
				break
			}
		}
	}
	if p.accept(token.HAVING) {
		h, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	return sel, nil
}

func (p *Parser) parseSelectList() ([]ast.SelectItem, error) {
	var items []ast.SelectItem
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if !p.accept(token.COMMA) {
			return items, nil
		}
	}
}

func (p *Parser) parseSelectItem() (ast.SelectItem, error) {
	if p.at(token.STAR) {
		p.advance()
		return ast.SelectItem{Star: true}, nil
	}
	// alias.*
	if (p.at(token.IDENT) || p.at(token.QIDENT)) &&
		p.peekAt(1).Kind == token.DOT && p.peekAt(2).Kind == token.STAR {
		tbl := p.advance().Text
		p.advance()
		p.advance()
		return ast.SelectItem{Star: true, StarTable: tbl}, nil
	}
	e, err := p.ParseExpr()
	if err != nil {
		return ast.SelectItem{}, err
	}
	item := ast.SelectItem{Expr: e}
	if p.accept(token.AS) {
		a, err := p.parseName()
		if err != nil {
			return ast.SelectItem{}, err
		}
		item.Alias = a
	} else if p.at(token.IDENT) || p.at(token.QIDENT) {
		item.Alias = p.advance().Text
	}
	return item, nil
}

// parseTableRef parses a FROM item including chained joins.
func (p *Parser) parseTableRef() (ast.TableRef, error) {
	left, err := p.parsePrimaryTableRef()
	if err != nil {
		return nil, err
	}
	for {
		kind, isJoin := p.peekJoin()
		if !isJoin {
			return left, nil
		}
		right, err := p.parsePrimaryTableRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.ON); err != nil {
			return nil, err
		}
		on, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		left = &ast.JoinRef{Kind: kind, Left: left, Right: right, On: on}
	}
}

// peekJoin consumes join keywords if present and returns the join kind.
func (p *Parser) peekJoin() (ast.JoinKind, bool) {
	switch p.peek().Kind {
	case token.JOIN:
		p.advance()
		return ast.InnerJoin, true
	case token.INNER:
		p.advance()
		p.accept(token.JOIN)
		return ast.InnerJoin, true
	case token.LEFT:
		p.advance()
		p.accept(token.OUTER)
		p.accept(token.JOIN)
		return ast.LeftJoin, true
	case token.RIGHT:
		p.advance()
		p.accept(token.OUTER)
		p.accept(token.JOIN)
		return ast.RightJoin, true
	case token.FULL:
		p.advance()
		p.accept(token.OUTER)
		p.accept(token.JOIN)
		return ast.FullJoin, true
	default:
		return ast.InnerJoin, false
	}
}

func (p *Parser) parsePrimaryTableRef() (ast.TableRef, error) {
	if p.accept(token.LPAREN) {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
		ref := &ast.SubqueryRef{Select: sel}
		if p.accept(token.AS) {
			a, err := p.parseName()
			if err != nil {
				return nil, err
			}
			ref.Alias = a
		} else if p.at(token.IDENT) || p.at(token.QIDENT) {
			ref.Alias = p.advance().Text
		}
		return ref, nil
	}
	name, err := p.parseName()
	if err != nil {
		return nil, err
	}
	ref := &ast.TableName{Name: name}
	if p.accept(token.AS) {
		a, err := p.parseName()
		if err != nil {
			return nil, err
		}
		ref.Alias = a
	} else if p.at(token.IDENT) || p.at(token.QIDENT) {
		ref.Alias = p.advance().Text
	}
	return ref, nil
}

// --- expressions (precedence climbing) ---

// ParseExpr parses an expression.
func (p *Parser) ParseExpr() (ast.Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (ast.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(token.OR) {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: ast.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (ast.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(token.AND) {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: ast.OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (ast.Expr, error) {
	if p.accept(token.NOT) {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: ast.OpNot, X: x}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (ast.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().Kind {
		case token.EQ, token.NEQ, token.LT, token.LTE, token.GT, token.GTE:
			op := comparisonOp(p.advance().Kind)
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &ast.Binary{Op: op, L: l, R: r}
		case token.BETWEEN:
			p.advance()
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.AND); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &ast.Between{X: l, Lo: lo, Hi: hi}
		case token.IN:
			p.advance()
			list, err := p.parseExprList()
			if err != nil {
				return nil, err
			}
			l = &ast.InList{X: l, List: list}
		case token.IS:
			p.advance()
			not := p.accept(token.NOT)
			if _, err := p.expect(token.NULL); err != nil {
				return nil, err
			}
			l = &ast.IsNull{X: l, Not: not}
		case token.LIKE:
			p.advance()
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &ast.Like{X: l, Pattern: pat}
		case token.NOT:
			// X NOT BETWEEN / NOT IN / NOT LIKE
			switch p.peekAt(1).Kind {
			case token.BETWEEN:
				p.advance()
				p.advance()
				lo, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(token.AND); err != nil {
					return nil, err
				}
				hi, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &ast.Between{Not: true, X: l, Lo: lo, Hi: hi}
			case token.IN:
				p.advance()
				p.advance()
				list, err := p.parseExprList()
				if err != nil {
					return nil, err
				}
				l = &ast.InList{Not: true, X: l, List: list}
			case token.LIKE:
				p.advance()
				p.advance()
				pat, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &ast.Like{Not: true, X: l, Pattern: pat}
			default:
				return l, nil
			}
		default:
			return l, nil
		}
	}
}

func comparisonOp(k token.Kind) ast.BinaryOp {
	switch k {
	case token.EQ:
		return ast.OpEq
	case token.NEQ:
		return ast.OpNeq
	case token.LT:
		return ast.OpLt
	case token.LTE:
		return ast.OpLte
	case token.GT:
		return ast.OpGt
	default:
		return ast.OpGte
	}
}

func (p *Parser) parseExprList() ([]ast.Expr, error) {
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	var out []ast.Expr
	for {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.accept(token.COMMA) {
			break
		}
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *Parser) parseAdditive() (ast.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.BinaryOp
		switch p.peek().Kind {
		case token.PLUS:
			op = ast.OpAdd
		case token.MINUS:
			op = ast.OpSub
		case token.CONCAT:
			op = ast.OpConcat
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseMultiplicative() (ast.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.BinaryOp
		switch p.peek().Kind {
		case token.STAR:
			op = ast.OpMul
		case token.SLASH:
			op = ast.OpDiv
		case token.PERCENT:
			op = ast.OpMod
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (ast.Expr, error) {
	if p.accept(token.MINUS) {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: ast.OpNeg, X: x}, nil
	}
	p.accept(token.PLUS) // unary plus is a no-op
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (ast.Expr, error) {
	switch p.peek().Kind {
	case token.NUMBER:
		return p.parseNumber()
	case token.STRING:
		return &ast.StringLit{V: p.advance().Text}, nil
	case token.TRUE:
		p.advance()
		return &ast.BoolLit{V: true}, nil
	case token.FALSE:
		p.advance()
		return &ast.BoolLit{V: false}, nil
	case token.NULL:
		p.advance()
		return &ast.NullLit{}, nil
	case token.INTERVAL:
		return p.parseInterval()
	case token.TIME:
		return p.parseTimeLit()
	case token.CASE:
		return p.parseCase()
	case token.CAST:
		return p.parseCast()
	case token.EXISTS:
		p.advance()
		if _, err := p.expect(token.LPAREN); err != nil {
			return nil, err
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
		return &ast.Subquery{Exists: true, Select: sel}, nil
	case token.LPAREN:
		p.advance()
		if p.at(token.SELECT) {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RPAREN); err != nil {
				return nil, err
			}
			return &ast.Subquery{Select: sel}, nil
		}
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	case token.IDENT, token.QIDENT:
		return p.parseIdentOrCall()
	case token.END:
		// END is both a keyword and the paper's window-end aggregate
		// function (§3.6); treat END( as a call.
		if p.peekAt(1).Kind == token.LPAREN {
			p.advance()
			return p.parseCallNamed("END")
		}
	}
	return nil, p.errorf("unexpected %s in expression", p.peek())
}

func (p *Parser) parseNumber() (ast.Expr, error) {
	t := p.advance()
	if !strings.ContainsAny(t.Text, ".eE") {
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err == nil {
			return &ast.NumberLit{Text: t.Text, IsInt: true, Int: v, Float: float64(v)}, nil
		}
	}
	f, err := strconv.ParseFloat(t.Text, 64)
	if err != nil {
		return nil, &Error{Pos: t.Pos, Msg: fmt.Sprintf("bad number %q", t.Text)}
	}
	return &ast.NumberLit{Text: t.Text, Float: f}, nil
}

func (p *Parser) parseTimeUnit() (ast.TimeUnit, error) {
	switch p.peek().Kind {
	case token.YEAR:
		p.advance()
		return ast.UnitYear, nil
	case token.MONTH:
		p.advance()
		return ast.UnitMonth, nil
	case token.DAY:
		p.advance()
		return ast.UnitDay, nil
	case token.HOUR:
		p.advance()
		return ast.UnitHour, nil
	case token.MINUTE:
		p.advance()
		return ast.UnitMinute, nil
	case token.SECOND:
		p.advance()
		return ast.UnitSecond, nil
	default:
		return 0, p.errorf("expected time unit, found %s", p.peek())
	}
}

// parseInterval handles INTERVAL 'v' UNIT [TO UNIT] (Listings 5, 7).
func (p *Parser) parseInterval() (ast.Expr, error) {
	if _, err := p.expect(token.INTERVAL); err != nil {
		return nil, err
	}
	lit, err := p.expect(token.STRING)
	if err != nil {
		return nil, err
	}
	unit, err := p.parseTimeUnit()
	if err != nil {
		return nil, err
	}
	iv := &ast.IntervalLit{Text: lit.Text, Unit: unit}
	if p.accept(token.TO) {
		to, err := p.parseTimeUnit()
		if err != nil {
			return nil, err
		}
		if to <= unit {
			return nil, &Error{Pos: lit.Pos, Msg: fmt.Sprintf("interval TO unit %s must be finer than %s", to, unit)}
		}
		iv.ToUnit = &to
	}
	millis, err := resolveInterval(iv)
	if err != nil {
		return nil, &Error{Pos: lit.Pos, Msg: err.Error()}
	}
	iv.Millis = millis
	return iv, nil
}

// resolveInterval computes the millisecond duration of an interval literal.
// Single-unit form: integer count of Unit. Two-unit form: colon-separated
// components from Unit down to ToUnit (e.g. '1:30' HOUR TO MINUTE).
func resolveInterval(iv *ast.IntervalLit) (int64, error) {
	if iv.ToUnit == nil {
		n, err := strconv.ParseFloat(strings.TrimSpace(iv.Text), 64)
		if err != nil {
			return 0, fmt.Errorf("bad interval value %q", iv.Text)
		}
		return int64(n * float64(iv.Unit.Millis())), nil
	}
	parts := strings.Split(iv.Text, ":")
	units := unitsBetween(iv.Unit, *iv.ToUnit)
	if len(parts) != len(units) {
		return 0, fmt.Errorf("interval %q has %d fields, %s TO %s needs %d",
			iv.Text, len(parts), iv.Unit, *iv.ToUnit, len(units))
	}
	var total int64
	for i, part := range parts {
		n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad interval field %q", part)
		}
		total += n * units[i].Millis()
	}
	return total, nil
}

// unitsBetween lists units from coarse to fine inclusive.
func unitsBetween(from, to ast.TimeUnit) []ast.TimeUnit {
	var out []ast.TimeUnit
	for u := from; u <= to; u++ {
		out = append(out, u)
	}
	return out
}

// parseTimeLit handles TIME 'h:mm[:ss]' used as HOP alignment (Listing 5).
func (p *Parser) parseTimeLit() (ast.Expr, error) {
	if _, err := p.expect(token.TIME); err != nil {
		return nil, err
	}
	lit, err := p.expect(token.STRING)
	if err != nil {
		return nil, err
	}
	parts := strings.Split(lit.Text, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, &Error{Pos: lit.Pos, Msg: fmt.Sprintf("bad time literal %q", lit.Text)}
	}
	var total int64
	scale := []int64{3600 * 1000, 60 * 1000, 1000}
	for i, part := range parts {
		n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil || n < 0 {
			return nil, &Error{Pos: lit.Pos, Msg: fmt.Sprintf("bad time field %q", part)}
		}
		total += n * scale[i]
	}
	return &ast.TimeLit{Text: lit.Text, Millis: total}, nil
}

func (p *Parser) parseCase() (ast.Expr, error) {
	if _, err := p.expect(token.CASE); err != nil {
		return nil, err
	}
	c := &ast.Case{}
	if !p.at(token.WHEN) {
		op, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.accept(token.WHEN) {
		w, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.THEN); err != nil {
			return nil, err
		}
		t, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, ast.WhenClause{When: w, Then: t})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.accept(token.ELSE) {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if _, err := p.expect(token.END); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *Parser) parseCast() (ast.Expr, error) {
	if _, err := p.expect(token.CAST); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	x, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.AS); err != nil {
		return nil, err
	}
	name, err := p.parseName()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	return &ast.Cast{X: x, TypeName: strings.ToUpper(name)}, nil
}

// parseIdentOrCall parses an identifier chain or a function call.
func (p *Parser) parseIdentOrCall() (ast.Expr, error) {
	name := p.advance().Text
	if p.at(token.LPAREN) {
		return p.parseCallNamed(strings.ToUpper(name))
	}
	parts := []string{name}
	for p.at(token.DOT) && (p.peekAt(1).Kind == token.IDENT || p.peekAt(1).Kind == token.QIDENT) {
		p.advance()
		parts = append(parts, p.advance().Text)
	}
	return &ast.Ident{Parts: parts}, nil
}

// parseCallNamed parses the argument list and optional OVER clause of a
// call whose (upper-cased) name is already consumed.
func (p *Parser) parseCallNamed(name string) (ast.Expr, error) {
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	call := &ast.FuncCall{Name: name}
	if name == "FLOOR" {
		// FLOOR(x TO unit) is a dedicated node; FLOOR(x) stays a call.
		x, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		if p.accept(token.TO) {
			unit, err := p.parseTimeUnit()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RPAREN); err != nil {
				return nil, err
			}
			return &ast.FloorTo{X: x, Unit: unit}, nil
		}
		call.Args = append(call.Args, x)
		for p.accept(token.COMMA) {
			a, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
		return call, nil
	}
	if p.at(token.STAR) {
		p.advance()
		call.Star = true
	} else if !p.at(token.RPAREN) {
		if p.accept(token.DISTINCT) {
			call.Distinct = true
		}
		for {
			a, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
			if !p.accept(token.COMMA) {
				break
			}
		}
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	if p.accept(token.OVER) {
		over, err := p.parseWindowSpec()
		if err != nil {
			return nil, err
		}
		call.Over = over
	}
	return call, nil
}

func (p *Parser) parseWindowSpec() (*ast.WindowSpec, error) {
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	w := &ast.WindowSpec{}
	if p.accept(token.PARTITION) {
		if _, err := p.expect(token.BY); err != nil {
			return nil, err
		}
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			w.PartitionBy = append(w.PartitionBy, e)
			if !p.accept(token.COMMA) {
				break
			}
		}
	}
	if p.accept(token.ORDER) {
		if _, err := p.expect(token.BY); err != nil {
			return nil, err
		}
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			// ASC/DESC tolerated; streams are time-ordered ascending.
			p.accept(token.ASC)
			if p.at(token.DESC) {
				return nil, p.errorf("DESC ordering is not supported over streams")
			}
			w.OrderBy = append(w.OrderBy, e)
			if !p.accept(token.COMMA) {
				break
			}
		}
	}
	if p.at(token.RANGE) || p.at(token.ROWS) {
		frame := &ast.WindowFrame{}
		if p.advance().Kind == token.ROWS {
			frame.Unit = ast.FrameRows
		}
		if p.accept(token.UNBOUNDED) {
			if _, err := p.expect(token.PRECEDING); err != nil {
				return nil, err
			}
		} else if p.accept(token.CURRENT) {
			if _, err := p.expect(token.ROW); err != nil {
				return nil, err
			}
			frame.Preceding = ast.NewIntLit(0)
		} else {
			b, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.PRECEDING); err != nil {
				return nil, err
			}
			frame.Preceding = b
		}
		w.Frame = frame
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	return w, nil
}
