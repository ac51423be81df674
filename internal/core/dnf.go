package core

import (
	"fmt"

	"repro/internal/sgf"
)

// Literal is an atom or its negation.
type Literal struct {
	Atom    sgf.Atom
	Negated bool
}

func (l Literal) String() string {
	if l.Negated {
		return "NOT " + l.Atom.String()
	}
	return l.Atom.String()
}

// maxDNFDisjuncts bounds DNF expansion; sequential plans are only built
// for conditions whose DNF stays small (the paper's SEQ baseline is
// applied to conjunctive queries and small disjunctions like B2).
const maxDNFDisjuncts = 64

// ToDNF converts a condition into disjunctive normal form: a list of
// disjuncts, each a conjunction of literals. A nil condition yields one
// empty disjunct (always true). It fails when the expansion exceeds
// maxDNFDisjuncts.
func ToDNF(c sgf.Condition) ([][]Literal, error) {
	if c == nil {
		return [][]Literal{nil}, nil
	}
	d, err := dnf(c, false)
	if err != nil {
		return nil, err
	}
	return d, nil
}

func dnf(c sgf.Condition, negate bool) ([][]Literal, error) {
	switch x := c.(type) {
	case sgf.AtomCond:
		return [][]Literal{{Literal{Atom: x.Atom, Negated: negate}}}, nil
	case sgf.Not:
		return dnf(x.C, !negate)
	case sgf.And:
		if negate {
			return dnfDisjunction(x.Cs, true)
		}
		return dnfConjunction(x.Cs, false)
	case sgf.Or:
		if negate {
			return dnfConjunction(x.Cs, true)
		}
		return dnfDisjunction(x.Cs, false)
	default:
		return nil, fmt.Errorf("core: unknown condition type %T", c)
	}
}

// dnfDisjunction concatenates the DNFs of the children.
func dnfDisjunction(cs []sgf.Condition, negate bool) ([][]Literal, error) {
	var out [][]Literal
	for _, c := range cs {
		d, err := dnf(c, negate)
		if err != nil {
			return nil, err
		}
		out = append(out, d...)
		if len(out) > maxDNFDisjuncts {
			return nil, fmt.Errorf("core: DNF expansion exceeds %d disjuncts", maxDNFDisjuncts)
		}
	}
	return out, nil
}

// dnfConjunction distributes conjunction over the children's DNFs.
func dnfConjunction(cs []sgf.Condition, negate bool) ([][]Literal, error) {
	out := [][]Literal{nil}
	for _, c := range cs {
		d, err := dnf(c, negate)
		if err != nil {
			return nil, err
		}
		var next [][]Literal
		for _, partial := range out {
			for _, disjunct := range d {
				merged := make([]Literal, 0, len(partial)+len(disjunct))
				merged = append(merged, partial...)
				merged = append(merged, disjunct...)
				next = append(next, merged)
				if len(next) > maxDNFDisjuncts {
					return nil, fmt.Errorf("core: DNF expansion exceeds %d disjuncts", maxDNFDisjuncts)
				}
			}
		}
		out = next
	}
	return out, nil
}

// dedupeLiterals removes duplicate literals in a disjunct, preserving
// order; contradictory pairs (κ and NOT κ) make the disjunct
// unsatisfiable, reported via the bool.
func dedupeLiterals(lits []Literal) ([]Literal, bool) {
	seen := make(map[string]bool, len(lits))
	var out []Literal
	for _, l := range lits {
		k := l.Atom.Key()
		if l.Negated {
			k = "!" + k
		}
		opposite := l.Atom.Key()
		if !l.Negated {
			opposite = "!" + opposite
		}
		if seen[opposite] {
			return nil, false
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, l)
	}
	return out, true
}
