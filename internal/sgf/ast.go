// Package sgf implements the Strictly Guarded Fragment query language of
// the paper: terms, atoms, Boolean conditions, basic (BSGF) queries, and
// SGF programs (sequences of BSGF queries), together with a parser for the
// paper's SQL-like syntax, a validator, conformance/projection semantics,
// and dependency graphs.
//
// A basic query has the form
//
//	Z := SELECT x̄ FROM R(t̄) [WHERE C];
//
// where C is a Boolean combination of atoms such that any variable shared
// by two distinct conditional atoms also occurs in the guard R(t̄).
package sgf

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relation"
)

// Term is a variable or a constant data value.
type Term struct {
	Var   string         // variable name; empty when the term is a constant
	Const relation.Value // constant value, meaningful when Var == ""
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(v relation.Value) Term { return Term{Const: v} }

// CInt returns a constant term holding a non-negative integer.
func CInt(n int64) Term { return Term{Const: relation.Int(n)} }

// CStr returns a constant term holding an interned string.
func CStr(s string) Term { return Term{Const: relation.String(s)} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders the term: the variable name, a bare integer, or a quoted
// string constant. A constant is quoted the way the lexer reads it back:
// '"' and '\' escaped with a backslash, every other character as it is.
func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	if t.Const.IsString() {
		return `"` + constEscaper.Replace(t.Const.Text()) + `"`
	}
	return t.Const.Text()
}

// constEscaper escapes a string constant for its double quotes.
var constEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

// Atom is R(t1, ..., tn) for a relation symbol R and terms ti.
type Atom struct {
	Rel  string
	Args []Term
}

// NewAtom builds an atom.
func NewAtom(rel string, args ...Term) Atom { return Atom{Rel: rel, Args: args} }

// Arity returns the number of argument terms.
func (a Atom) Arity() int { return len(a.Args) }

// String renders the atom in query syntax.
func (a Atom) String() string {
	var sb strings.Builder
	sb.WriteString(a.Rel)
	sb.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Key returns a canonical identity string for the atom. Two atoms are "the
// same atom" in the paper's sense (for MSJ deduplication and for the
// distinctness requirement in §4.4) iff their keys are equal.
func (a Atom) Key() string {
	var sb strings.Builder
	sb.WriteString(a.Rel)
	sb.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			sb.WriteByte(',')
		}
		if t.IsVar() {
			sb.WriteByte('$')
			sb.WriteString(t.Var)
		} else {
			sb.WriteByte('=')
			sb.WriteString(t.Const.Text())
			if t.Const.IsString() {
				sb.WriteByte('"')
			}
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

// Vars returns the distinct variables of the atom in order of first
// occurrence.
func (a Atom) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, t := range a.Args {
		if t.IsVar() && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// HasVar reports whether v occurs in the atom.
func (a Atom) HasVar(v string) bool {
	for _, t := range a.Args {
		if t.Var == v {
			return true
		}
	}
	return false
}

// VarPositions returns, for each variable in vars, the position of its
// first occurrence in the atom. It panics if a variable does not occur.
func (a Atom) VarPositions(vars []string) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		pos := -1
		for j, t := range a.Args {
			if t.Var == v {
				pos = j
				break
			}
		}
		if pos < 0 {
			panic(fmt.Sprintf("sgf: variable %s not in atom %s", v, a))
		}
		out[i] = pos
	}
	return out
}

// SharedVars returns the variables occurring in both a and b, ordered by
// first occurrence in a. This is the join key z̄ of a semi-join a ⋉ b when
// a is the guard.
func SharedVars(a, b Atom) []string {
	var out []string
	for _, v := range a.Vars() {
		if b.HasVar(v) {
			out = append(out, v)
		}
	}
	return out
}

// Equal reports structural equality of atoms.
func (a Atom) Equal(b Atom) bool { return a.Key() == b.Key() }

// Condition is a Boolean combination of atoms: the WHERE clause C of a
// basic SGF query. The concrete types are AtomCond, Not, And and Or; a
// nil Condition means an absent WHERE clause (always true). String
// renders the condition in the paper's syntax, re-parseable by Parse.
type Condition interface {
	fmt.Stringer
	// walk visits every atom leaf in left-to-right order.
	walk(func(Atom))
	// eval computes the truth value given per-atom verdicts. truth is
	// called with the canonical Key of each atom leaf.
	eval(truth func(atomKey string) bool) bool
}

// AtomCond is an atom used as a Boolean leaf: true under substitution σ
// iff a conforming fact with matching shared-variable values exists.
type AtomCond struct{ Atom Atom }

// Not negates a condition.
type Not struct{ C Condition }

// And is an n-ary conjunction (len >= 2 after parsing).
type And struct{ Cs []Condition }

// Or is an n-ary disjunction (len >= 2 after parsing).
type Or struct{ Cs []Condition }

func (c AtomCond) walk(f func(Atom)) { f(c.Atom) }
func (c Not) walk(f func(Atom))      { c.C.walk(f) }
func (c And) walk(f func(Atom)) {
	for _, x := range c.Cs {
		x.walk(f)
	}
}
func (c Or) walk(f func(Atom)) {
	for _, x := range c.Cs {
		x.walk(f)
	}
}

func (c AtomCond) eval(truth func(string) bool) bool { return truth(c.Atom.Key()) }
func (c Not) eval(truth func(string) bool) bool      { return !c.C.eval(truth) }
func (c And) eval(truth func(string) bool) bool {
	for _, x := range c.Cs {
		if !x.eval(truth) {
			return false
		}
	}
	return true
}
func (c Or) eval(truth func(string) bool) bool {
	for _, x := range c.Cs {
		if x.eval(truth) {
			return true
		}
	}
	return false
}

// String renders the atom in the paper's syntax, e.g. S(x, "bad").
func (c AtomCond) String() string { return c.Atom.String() }

// String renders the negation, parenthesizing non-atom operands:
// NOT S(x) but NOT (S(x) AND T(x)).
func (c Not) String() string {
	switch c.C.(type) {
	case AtomCond:
		return "NOT " + c.C.String()
	default:
		return "NOT (" + c.C.String() + ")"
	}
}

func condChild(parent string, child Condition) string {
	switch child.(type) {
	case And:
		if parent == "OR" {
			return "(" + child.String() + ")"
		}
		return child.String()
	case Or:
		return "(" + child.String() + ")"
	default:
		return child.String()
	}
}

// String joins the operands with AND, parenthesizing nested Ors (AND
// binds tighter than OR; see the parser's precedence).
func (c And) String() string {
	parts := make([]string, len(c.Cs))
	for i, x := range c.Cs {
		parts[i] = condChild("AND", x)
	}
	return strings.Join(parts, " AND ")
}

// String joins the operands with OR, parenthesizing nested mixed
// conjunctions where required for re-parseability.
func (c Or) String() string {
	parts := make([]string, len(c.Cs))
	for i, x := range c.Cs {
		parts[i] = condChild("OR", x)
	}
	return strings.Join(parts, " OR ")
}

// AndOf builds a conjunction, flattening nested Ands and collapsing the
// single-element case.
func AndOf(cs ...Condition) Condition { return nary(cs, true) }

// OrOf builds a disjunction, flattening nested Ors and collapsing the
// single-element case.
func OrOf(cs ...Condition) Condition { return nary(cs, false) }

func nary(cs []Condition, isAnd bool) Condition {
	var flat []Condition
	for _, c := range cs {
		switch x := c.(type) {
		case And:
			if isAnd {
				flat = append(flat, x.Cs...)
				continue
			}
		case Or:
			if !isAnd {
				flat = append(flat, x.Cs...)
				continue
			}
		}
		flat = append(flat, c)
	}
	if len(flat) == 1 {
		return flat[0]
	}
	if isAnd {
		return And{Cs: flat}
	}
	return Or{Cs: flat}
}

// Atoms returns the distinct atoms of the condition in left-to-right order
// of first occurrence. nil conditions yield nil.
func Atoms(c Condition) []Atom {
	if c == nil {
		return nil
	}
	var out []Atom
	seen := make(map[string]bool)
	c.walk(func(a Atom) {
		k := a.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, a)
		}
	})
	return out
}

// EvalCondition computes the truth value of c given per-atom verdicts
// keyed by Atom.Key(). A nil condition is true (absent WHERE clause).
func EvalCondition(c Condition, truth map[string]bool) bool {
	if c == nil {
		return true
	}
	return c.eval(func(k string) bool { return truth[k] })
}

// CompiledCondition is a condition compiled over a bit set: every atom
// is a bit position, and Eval walks the node tree with a concrete
// method, so the words a caller keeps on its stack stay there. This is
// the reducer-side form of every job that reconciles verdicts —
// EvalCondition allocates a truth map per call and is the reference the
// compiled form is checked against (TestCompileConditionMatchesEval).
type CompiledCondition struct {
	op   condOp
	bit  int                 // opAtom: the atom's position in the bit set
	subs []CompiledCondition // opNot: one; opAnd, opOr: the operands
}

type condOp byte

const (
	opTrue condOp = iota
	opAtom
	opNot
	opAnd
	opOr
)

// CompileCondition compiles c over the bit positions bitOf assigns to
// its atoms' canonical keys. An atom bitOf does not map, or maps below
// zero, is an error: the caller built the wrong table. A nil condition
// (absent WHERE clause) compiles to constantly true.
func CompileCondition(c Condition, bitOf func(atomKey string) (int, bool)) (CompiledCondition, error) {
	switch x := c.(type) {
	case nil:
		return CompiledCondition{op: opTrue}, nil
	case AtomCond:
		pos, ok := bitOf(x.Atom.Key())
		if !ok || pos < 0 {
			return CompiledCondition{}, fmt.Errorf("sgf: atom %s has no bit position", x.Atom)
		}
		return CompiledCondition{op: opAtom, bit: pos}, nil
	case Not:
		return compileNary(opNot, []Condition{x.C}, bitOf)
	case And:
		return compileNary(opAnd, x.Cs, bitOf)
	case Or:
		return compileNary(opOr, x.Cs, bitOf)
	}
	return CompiledCondition{}, fmt.Errorf("sgf: cannot compile condition %T", c)
}

func compileNary(op condOp, cs []Condition, bitOf func(string) (int, bool)) (CompiledCondition, error) {
	n := CompiledCondition{op: op, subs: make([]CompiledCondition, len(cs))}
	for i, c := range cs {
		var err error
		if n.subs[i], err = CompileCondition(c, bitOf); err != nil {
			return CompiledCondition{}, err
		}
	}
	return n, nil
}

// Eval computes the condition over bits, where atom position p is bit
// p%64 of word p/64. bits must span every position the condition was
// compiled over.
func (c *CompiledCondition) Eval(bits []uint64) bool {
	switch c.op {
	case opAtom:
		return bits[c.bit>>6]>>(uint(c.bit)&63)&1 != 0
	case opNot:
		return !c.subs[0].Eval(bits)
	case opAnd:
		for i := range c.subs {
			if !c.subs[i].Eval(bits) {
				return false
			}
		}
		return true
	case opOr:
		for i := range c.subs {
			if c.subs[i].Eval(bits) {
				return true
			}
		}
		return false
	}
	return true
}

// Relations returns the distinct relation symbols mentioned in c.
func Relations(c Condition) []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range Atoms(c) {
		if !seen[a.Rel] {
			seen[a.Rel] = true
			out = append(out, a.Rel)
		}
	}
	return out
}

// BSGF is a basic strictly guarded fragment query
// Name := SELECT Select FROM Guard [WHERE Where].
type BSGF struct {
	Name   string   // output relation Z
	Select []string // projection variables x̄, all occurring in the guard
	Guard  Atom     // guard atom R(t̄)
	Where  Condition
}

// OutArity returns the arity of the output relation.
func (q *BSGF) OutArity() int { return len(q.Select) }

// CondAtoms returns the distinct conditional atoms of the query.
func (q *BSGF) CondAtoms() []Atom { return Atoms(q.Where) }

// RelationNames returns the distinct relation symbols mentioned by the
// query (guard first).
func (q *BSGF) RelationNames() []string {
	out := []string{q.Guard.Rel}
	seen := map[string]bool{q.Guard.Rel: true}
	for _, r := range Relations(q.Where) {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// String renders the query in the paper's syntax, terminated by ";".
func (q *BSGF) String() string {
	var sb strings.Builder
	sb.WriteString(q.Name)
	sb.WriteString(" := SELECT ")
	sb.WriteString(strings.Join(q.Select, ", "))
	sb.WriteString(" FROM ")
	sb.WriteString(q.Guard.String())
	if q.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(q.Where.String())
	}
	sb.WriteByte(';')
	return sb.String()
}

// Clone returns a deep copy of the query.
func (q *BSGF) Clone() *BSGF {
	c := &BSGF{
		Name:   q.Name,
		Select: append([]string(nil), q.Select...),
		Guard:  Atom{Rel: q.Guard.Rel, Args: append([]Term(nil), q.Guard.Args...)},
		Where:  cloneCond(q.Where),
	}
	return c
}

func cloneCond(c Condition) Condition {
	switch x := c.(type) {
	case nil:
		return nil
	case AtomCond:
		return AtomCond{Atom: Atom{Rel: x.Atom.Rel, Args: append([]Term(nil), x.Atom.Args...)}}
	case Not:
		return Not{C: cloneCond(x.C)}
	case And:
		cs := make([]Condition, len(x.Cs))
		for i, y := range x.Cs {
			cs[i] = cloneCond(y)
		}
		return And{Cs: cs}
	case Or:
		cs := make([]Condition, len(x.Cs))
		for i, y := range x.Cs {
			cs[i] = cloneCond(y)
		}
		return Or{Cs: cs}
	default:
		panic(fmt.Sprintf("sgf: unknown condition type %T", c))
	}
}

// Program is an SGF query: a sequence Z1 := ξ1; ...; Zn := ξn where each
// ξi may mention the output relations Zj with j < i. The result of the
// program is the relation defined by the last query.
type Program struct {
	Queries []*BSGF
}

// OutputName returns the name of the final output relation, or "" for an
// empty program.
func (p *Program) OutputName() string {
	if len(p.Queries) == 0 {
		return ""
	}
	return p.Queries[len(p.Queries)-1].Name
}

// QueryByName returns the BSGF with the given output name, or nil.
func (p *Program) QueryByName(name string) *BSGF {
	for _, q := range p.Queries {
		if q.Name == name {
			return q
		}
	}
	return nil
}

// Defined returns the set of output relation names defined by the program.
func (p *Program) Defined() map[string]bool {
	out := make(map[string]bool, len(p.Queries))
	for _, q := range p.Queries {
		out[q.Name] = true
	}
	return out
}

// BaseRelations returns the sorted names of relations mentioned but not
// defined by the program: the inputs it expects from the database.
func (p *Program) BaseRelations() []string {
	defined := p.Defined()
	seen := make(map[string]bool)
	var out []string
	for _, q := range p.Queries {
		for _, r := range q.RelationNames() {
			if !defined[r] && !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	sort.Strings(out)
	return out
}

// String renders the whole program, one query per line.
func (p *Program) String() string {
	lines := make([]string, len(p.Queries))
	for i, q := range p.Queries {
		lines[i] = q.String()
	}
	return strings.Join(lines, "\n")
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	c := &Program{Queries: make([]*BSGF, len(p.Queries))}
	for i, q := range p.Queries {
		c.Queries[i] = q.Clone()
	}
	return c
}
