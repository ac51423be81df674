package core

import (
	"fmt"

	"repro/internal/sgf"
)

// Equation is one semi-join equation X := π_x̄(α ⋉ κ) (§4.2). In
// tuple-id mode (the default, optimization (2)) the output relation X
// holds references (ids) of qualifying guard tuples rather than the
// projection, and the projection is applied by the EVAL job.
type Equation struct {
	Out      string   // output relation name X
	Guard    sgf.Atom // α
	Cond     sgf.Atom // κ
	JoinVars []string // z̄: variables shared by α and κ, ordered by α
}

// AssertClassKey identifies the assert message stream this equation
// consumes: conditional facts of atom κ projected on z̄ (as ordered by
// κ's positions). Two equations with equal class keys share assert
// messages in a combined MSJ job — the "conditional name sharing"
// commonality of Table 2.
func (e Equation) AssertClassKey() string { return streamKey(e.Cond, e.JoinVars) }

// streamKey identifies the record stream "facts of atom a keyed by
// their projection on vars": the atom's canonical key and the projected
// positions. Equal stream keys mean identical (key, fact) pairs, which
// is what assert sharing (AssertClassKey) and request packing (packKey)
// both rest on.
func streamKey(a sgf.Atom, vars []string) string {
	k := a.Key() + "@"
	for _, p := range a.VarPositions(vars) {
		k += fmt.Sprintf("%d,", p)
	}
	return k
}

func (e Equation) String() string {
	return fmt.Sprintf("%s := %s ⋉ %s", e.Out, e.Guard, e.Cond)
}

// ExtractEquations derives the semi-join set S of §4.4 for a list of
// BSGF queries: one equation per (query, distinct conditional atom).
// Queries without a WHERE clause contribute no equations; equations
// follow the slice order.
func ExtractEquations(queries []*sgf.BSGF) []Equation {
	var eqs []Equation
	for _, q := range queries {
		for ai, atom := range q.CondAtoms() {
			eqs = append(eqs, Equation{
				Out:      XName(q.Name, ai),
				Guard:    q.Guard,
				Cond:     atom,
				JoinVars: sgf.SharedVars(q.Guard, atom),
			})
		}
	}
	return eqs
}

// XName is the generated name of the MSJ output relation for conditional
// atom ai of query qname.
func XName(qname string, ai int) string {
	return fmt.Sprintf("X_%s_%d", sanitizeName(qname), ai)
}
