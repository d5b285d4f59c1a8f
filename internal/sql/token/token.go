// Package token defines the lexical tokens of SamzaSQL's dialect: standard
// SQL plus the streaming extensions of §3 (the STREAM keyword, INTERVAL and
// TIME literals for window specifications, HOP/TUMBLE appear as ordinary
// identifiers resolved by the validator).
package token

import "fmt"

// Kind classifies a token.
type Kind int

// Token kinds.
const (
	ILLEGAL Kind = iota
	EOF

	// Literals and names.
	IDENT  // orders, productId
	QIDENT // "quoted identifier"
	NUMBER // 123, 1.5
	STRING // 'text'

	// Operators and punctuation.
	PLUS      // +
	MINUS     // -
	STAR      // *
	SLASH     // /
	PERCENT   // %
	EQ        // =
	NEQ       // <> or !=
	LT        // <
	LTE       // <=
	GT        // >
	GTE       // >=
	LPAREN    // (
	RPAREN    // )
	COMMA     // ,
	DOT       // .
	SEMICOLON // ;
	CONCAT    // ||

	// Keywords.
	kwStart
	SELECT
	STREAM
	FROM
	WHERE
	GROUP
	BY
	HAVING
	ORDER
	ASC
	DESC
	LIMIT
	AS
	JOIN
	INNER
	LEFT
	RIGHT
	FULL
	OUTER
	ON
	AND
	OR
	NOT
	BETWEEN
	IN
	IS
	NULL
	TRUE
	FALSE
	LIKE
	CASE
	WHEN
	THEN
	ELSE
	END
	CAST
	INTERVAL
	TIME
	TO
	OVER
	PARTITION
	RANGE
	ROWS
	PRECEDING
	FOLLOWING
	CURRENT
	ROW
	UNBOUNDED
	CREATE
	VIEW
	INSERT
	INTO
	VALUES
	DISTINCT
	ALL
	UNION
	EXISTS
	YEAR
	MONTH
	DAY
	HOUR
	MINUTE
	SECOND
	kwEnd
)

var kindNames = map[Kind]string{
	ILLEGAL: "ILLEGAL", EOF: "EOF",
	IDENT: "IDENT", QIDENT: "QIDENT", NUMBER: "NUMBER", STRING: "STRING",
	PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%",
	EQ: "=", NEQ: "<>", LT: "<", LTE: "<=", GT: ">", GTE: ">=",
	LPAREN: "(", RPAREN: ")", COMMA: ",", DOT: ".", SEMICOLON: ";", CONCAT: "||",
	SELECT: "SELECT", STREAM: "STREAM", FROM: "FROM", WHERE: "WHERE",
	GROUP: "GROUP", BY: "BY", HAVING: "HAVING", ORDER: "ORDER",
	ASC: "ASC", DESC: "DESC", LIMIT: "LIMIT", AS: "AS",
	JOIN: "JOIN", INNER: "INNER", LEFT: "LEFT", RIGHT: "RIGHT", FULL: "FULL",
	OUTER: "OUTER", ON: "ON", AND: "AND", OR: "OR", NOT: "NOT",
	BETWEEN: "BETWEEN", IN: "IN", IS: "IS", NULL: "NULL",
	TRUE: "TRUE", FALSE: "FALSE", LIKE: "LIKE",
	CASE: "CASE", WHEN: "WHEN", THEN: "THEN", ELSE: "ELSE", END: "END",
	CAST: "CAST", INTERVAL: "INTERVAL", TIME: "TIME", TO: "TO",
	OVER: "OVER", PARTITION: "PARTITION", RANGE: "RANGE", ROWS: "ROWS",
	PRECEDING: "PRECEDING", FOLLOWING: "FOLLOWING", CURRENT: "CURRENT",
	ROW: "ROW", UNBOUNDED: "UNBOUNDED",
	CREATE: "CREATE", VIEW: "VIEW", INSERT: "INSERT", INTO: "INTO",
	VALUES: "VALUES", DISTINCT: "DISTINCT", ALL: "ALL", UNION: "UNION",
	EXISTS: "EXISTS",
	YEAR:   "YEAR", MONTH: "MONTH", DAY: "DAY",
	HOUR: "HOUR", MINUTE: "MINUTE", SECOND: "SECOND",
}

// String returns the token kind's display name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// keywords maps upper-cased keyword text to its kind.
var keywords = map[string]Kind{}

func init() {
	for k := kwStart + 1; k < kwEnd; k++ {
		keywords[kindNames[k]] = k
	}
}

// KeywordKind returns the keyword kind for upper-cased text, or IDENT.
func KeywordKind(upper string) Kind {
	if k, ok := keywords[upper]; ok {
		return k
	}
	return IDENT
}

// Position is a 1-based line and column in the query text.
type Position struct {
	Line int
	Col  int
}

func (p Position) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexeme with its source position.
type Token struct {
	Kind Kind
	// Text is the raw lexeme; for STRING the quotes are stripped and
	// doubled quotes unescaped, for QIDENT the double quotes are stripped.
	Text string
	Pos  Position
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT, QIDENT, NUMBER, STRING:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}
