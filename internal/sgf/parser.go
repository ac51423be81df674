package sgf

import (
	"fmt"
	"strconv"

	"repro/internal/relation"
)

// Parse parses an SGF program: a semicolon-terminated sequence of basic
// queries in the paper's syntax, e.g.
//
//	Z1 := SELECT aut FROM Amaz(ttl, aut, "bad")
//	      WHERE BN(ttl, aut, "bad") AND BD(ttl, aut, "bad");
//	Z2 := SELECT new, aut FROM Upcoming(new, aut) WHERE NOT Z1(aut);
//
// Keywords are case-insensitive. The select list may optionally be
// wrapped in parentheses: SELECT (x, y) FROM ... . Boolean operator
// precedence is NOT > AND > OR. The parsed program is validated (see
// Validate) before being returned.
func Parse(src string) (*Program, error) {
	p, err := ParseUnvalidated(src)
	if err != nil {
		return nil, err
	}
	if err := Validate(p); err != nil {
		return nil, err
	}
	return p, nil
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseUnvalidated parses without semantic validation. Useful to test the
// validator itself.
func ParseUnvalidated(src string) (*Program, error) {
	pr := &parser{lex: newLexer(src)}
	if err := pr.advance(); err != nil {
		return nil, err
	}
	prog := &Program{}
	for pr.tok.kind != tokEOF {
		q, err := pr.parseQuery()
		if err != nil {
			return nil, err
		}
		prog.Queries = append(prog.Queries, q)
	}
	if len(prog.Queries) == 0 {
		return nil, fmt.Errorf("sgf: empty program")
	}
	return prog, nil
}

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sgf: %d:%d: %s", p.tok.line, p.tok.col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(kind tokenKind) (token, error) {
	if p.tok.kind != kind {
		return token{}, p.errorf("expected %s, got %s %q", kind, p.tok.kind, p.tok.text)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

// parseQuery parses: Name := SELECT list FROM atom [WHERE cond] ;
func (p *parser) parseQuery() (*BSGF, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokAssign); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSelect); err != nil {
		return nil, err
	}
	sel, err := p.parseSelectList()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokFrom); err != nil {
		return nil, err
	}
	guard, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	q := &BSGF{Name: name.text, Select: sel, Guard: guard}
	if p.tok.kind == tokWhere {
		if err := p.advance(); err != nil {
			return nil, err
		}
		cond, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = cond
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return q, nil
}

// parseSelectList parses "x, y" or "(x, y)".
func (p *parser) parseSelectList() ([]string, error) {
	paren := false
	if p.tok.kind == tokLParen {
		paren = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	var out []string
	for {
		id, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		out = append(out, id.text)
		if p.tok.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if paren {
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parseOr parses or-expr := and-expr (OR and-expr)*.
func (p *parser) parseOr() (Condition, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	parts := []Condition{left}
	for p.tok.kind == tokOr {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		parts = append(parts, right)
	}
	return OrOf(parts...), nil
}

// parseAnd parses and-expr := unary (AND unary)*.
func (p *parser) parseAnd() (Condition, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	parts := []Condition{left}
	for p.tok.kind == tokAnd {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		parts = append(parts, right)
	}
	return AndOf(parts...), nil
}

// parseUnary parses NOT unary | ( or-expr ) | atom.
func (p *parser) parseUnary() (Condition, error) {
	switch p.tok.kind {
	case tokNot:
		if err := p.advance(); err != nil {
			return nil, err
		}
		c, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not{C: c}, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		c, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return c, nil
	case tokIdent:
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		return AtomCond{Atom: a}, nil
	default:
		return nil, p.errorf("expected NOT, '(' or atom, got %s %q", p.tok.kind, p.tok.text)
	}
}

// parseAtom parses Rel(term, term, ...).
func (p *parser) parseAtom() (Atom, error) {
	rel, err := p.expect(tokIdent)
	if err != nil {
		return Atom{}, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return Atom{}, err
	}
	var args []Term
	for {
		t, err := p.parseTerm()
		if err != nil {
			return Atom{}, err
		}
		args = append(args, t)
		if p.tok.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return Atom{}, err
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return Atom{}, err
	}
	return Atom{Rel: rel.text, Args: args}, nil
}

// parseTerm parses a variable, an integer constant, or a quoted string
// constant.
func (p *parser) parseTerm() (Term, error) {
	switch p.tok.kind {
	case tokIdent:
		t := V(p.tok.text)
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return t, nil
	case tokInt:
		n, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return Term{}, p.errorf("bad integer %q: %v", p.tok.text, err)
		}
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return C(relation.Int(n)), nil
	case tokString:
		t := CStr(p.tok.text)
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return t, nil
	default:
		return Term{}, p.errorf("expected term, got %s %q", p.tok.kind, p.tok.text)
	}
}
