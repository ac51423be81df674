package sgf

import "repro/internal/relation"

// ConformsTuple reports whether tuple t conforms to atom a's argument
// pattern (written rel(t) ⊨ a in the paper, the relation symbol being
// the caller's to match): repeated variables bind equal values and
// constant positions match exactly. Tuples of the wrong arity do not
// conform.
func ConformsTuple(t relation.Tuple, a Atom) bool {
	if len(t) != len(a.Args) {
		return false
	}
	for i, term := range a.Args {
		if !term.IsVar() {
			if t[i] != term.Const {
				return false
			}
			continue
		}
		// A repeated variable must bind the same value at every
		// occurrence; compare against its first occurrence.
		for j := 0; j < i; j++ {
			if a.Args[j].Var == term.Var {
				if t[j] != t[i] {
					return false
				}
				break
			}
		}
	}
	return true
}

// Project computes π_{a;vars}(t): the projection of a tuple conforming to
// atom a onto the listed variables (first-occurrence positions). The
// caller must have checked conformance.
func Project(t relation.Tuple, a Atom, vars []string) relation.Tuple {
	return t.Project(a.VarPositions(vars))
}

// Binding extracts the substitution σ mapping each variable of a to its
// value in the conforming tuple t.
func Binding(t relation.Tuple, a Atom) map[string]relation.Value {
	out := make(map[string]relation.Value)
	for i, term := range a.Args {
		if term.IsVar() {
			out[term.Var] = t[i]
		}
	}
	return out
}

// Matcher is a compiled conformance test for one atom, avoiding repeated
// pattern analysis in per-tuple inner loops.
type Matcher struct {
	arity  int
	consts []constCheck
	eqs    [][2]int // pairs of positions that must hold equal values
}

type constCheck struct {
	pos int
	val relation.Value
}

// NewMatcher compiles atom a into a Matcher.
func NewMatcher(a Atom) Matcher {
	m := Matcher{arity: len(a.Args)}
	first := make(map[string]int, len(a.Args))
	for i, term := range a.Args {
		if !term.IsVar() {
			m.consts = append(m.consts, constCheck{pos: i, val: term.Const})
			continue
		}
		if j, ok := first[term.Var]; ok {
			m.eqs = append(m.eqs, [2]int{j, i})
		} else {
			first[term.Var] = i
		}
	}
	return m
}

// Matches reports whether t conforms to the compiled atom pattern.
func (m Matcher) Matches(t relation.Tuple) bool {
	if len(t) != m.arity {
		return false
	}
	for _, c := range m.consts {
		if t[c.pos] != c.val {
			return false
		}
	}
	for _, e := range m.eqs {
		if t[e[0]] != t[e[1]] {
			return false
		}
	}
	return true
}

// Projector is a precompiled projection π_{a;vars}, avoiding repeated
// position lookups in inner loops.
type Projector struct{ positions []int }

// NewProjector compiles the projection of atom a onto vars.
func NewProjector(a Atom, vars []string) Projector {
	return Projector{positions: a.VarPositions(vars)}
}

// Apply projects t. The result is a fresh tuple.
func (p Projector) Apply(t relation.Tuple) relation.Tuple { return t.Project(p.positions) }

// AppendTo appends t's projection to dst and returns the extended
// slice: Apply into caller scratch, for a projection that is handed
// straight to something that copies it (relation.Relation.Add, a
// message encoder).
func (p Projector) AppendTo(dst, t relation.Tuple) relation.Tuple {
	for _, pos := range p.positions {
		dst = append(dst, t[pos])
	}
	return dst
}

// AppendKey appends the shuffle key of t's projection to dst and returns
// the extended slice. It is the mapper fast path equivalent to
// p.Apply(t).Key(): the projected tuple is never materialized and the
// caller controls the key buffer, so building a shuffle key costs no
// intermediate allocation.
func (p Projector) AppendKey(dst []byte, t relation.Tuple) []byte {
	for _, pos := range p.positions {
		dst = t[pos].AppendKey(dst)
	}
	return dst
}

// Arity returns the arity of projected tuples.
func (p Projector) Arity() int { return len(p.positions) }
