package core

import (
	"fmt"
	"strings"

	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// OneRoundMode classifies whether a BSGF query can be evaluated in a
// single fused MSJ+EVAL job (§5.1 optimization (4)).
type OneRoundMode int

const (
	// OneRoundInapplicable: the query needs the 2-round MSJ+EVAL plan.
	OneRoundInapplicable OneRoundMode = iota
	// OneRoundShared: all conditional atoms share one join key, so every
	// verdict for a guard fact lands on the same reducer and the full
	// Boolean condition is evaluated there (queries like A3 and B2).
	OneRoundShared
	// OneRoundDisjunctive: the condition is a pure disjunction of
	// (possibly negated) atoms; each literal is decidable at its own
	// join key and the union of per-key emissions realizes the OR.
	OneRoundDisjunctive
)

func (m OneRoundMode) String() string {
	switch m {
	case OneRoundShared:
		return "shared-key"
	case OneRoundDisjunctive:
		return "disjunctive"
	default:
		return "inapplicable"
	}
}

// joinSig is the ordered join-variable signature of an atom w.r.t. a
// guard.
func joinSig(guard, atom sgf.Atom) string {
	return strings.Join(sgf.SharedVars(guard, atom), "\x00")
}

// OneRoundApplicable reports how (and whether) q can run as one job.
func OneRoundApplicable(q *sgf.BSGF) OneRoundMode {
	atoms := q.CondAtoms()
	if len(atoms) == 0 {
		return OneRoundInapplicable
	}
	sig := joinSig(q.Guard, atoms[0])
	shared := sig != ""
	for _, a := range atoms[1:] {
		if joinSig(q.Guard, a) != sig {
			shared = false
			break
		}
	}
	if shared {
		return OneRoundShared
	}
	if isLiteralDisjunction(q.Where) {
		return OneRoundDisjunctive
	}
	return OneRoundInapplicable
}

// AllOneRound reports whether every query can run as one job — the
// precondition of the 1-ROUND strategy.
func AllOneRound(queries []*sgf.BSGF) bool {
	for _, q := range queries {
		if OneRoundApplicable(q) == OneRoundInapplicable {
			return false
		}
	}
	return true
}

// disjuncts returns the operands of a disjunction, or c itself.
func disjuncts(c sgf.Condition) []sgf.Condition {
	if or, ok := c.(sgf.Or); ok {
		return or.Cs
	}
	return []sgf.Condition{c}
}

// literalAtom returns the atom of a literal — an atom or its negation.
func literalAtom(c sgf.Condition) (sgf.Atom, bool) {
	if not, ok := c.(sgf.Not); ok {
		c = not.C
	}
	a, ok := c.(sgf.AtomCond)
	return a.Atom, ok
}

// isLiteralDisjunction reports whether c is a single literal or a
// disjunction of literals (atoms or negated atoms).
func isLiteralDisjunction(c sgf.Condition) bool {
	for _, d := range disjuncts(c) {
		if _, ok := literalAtom(d); !ok {
			return false
		}
	}
	return true
}

// literalGroups splits q's literal disjunction into one disjunction per
// distinct join signature, groups and literals in order of mention.
func literalGroups(q *sgf.BSGF) []sgf.Condition {
	var ors []sgf.Or
	bySig := make(map[string]int)
	for _, lit := range disjuncts(q.Where) {
		atom, _ := literalAtom(lit)
		sig := joinSig(q.Guard, atom)
		gi, ok := bySig[sig]
		if !ok {
			gi = len(ors)
			bySig[sig] = gi
			ors = append(ors, sgf.Or{})
		}
		ors[gi].Cs = append(ors[gi].Cs, lit)
	}
	groups := make([]sgf.Condition, len(ors))
	for i, or := range ors {
		groups[i] = or
	}
	return groups
}

// NewOneRoundJob builds the fused single-round job evaluating every
// query in one MapReduce job. Every query must be 1-round applicable.
// A guard fact sends its projection once per request group: the one
// join key and the whole condition in shared-key mode; in disjunctive
// mode one group per distinct join signature, holding the literals
// decidable at that key — the union of the groups' emissions realizes
// the OR. Assert classes are shared across all queries.
func NewOneRoundJob(name string, queries []*sgf.BSGF) (*mr.Job, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("core: 1-round job %s has no queries", name)
	}
	t := newReconcile("1-round job", name)
	for _, q := range queries {
		mode := OneRoundApplicable(q)
		if mode == OneRoundInapplicable {
			return nil, fmt.Errorf("core: query %s is not 1-round applicable", q.Name)
		}
		if err := t.output(q.Name, q.OutArity()); err != nil {
			return nil, err
		}
		t.input(q.Guard.Rel)
		groups := []sgf.Condition{q.Where}
		if mode == OneRoundDisjunctive {
			groups = literalGroups(q)
		}
		// Classes are numbered in the order the condition mentions
		// their atoms, whatever group a literal falls in.
		bits := make(map[string]int32)
		for _, a := range q.CondAtoms() {
			bits[a.Key()] = t.class(a, sgf.SharedVars(q.Guard, a))
		}
		for _, cond := range groups {
			err := t.request(request{
				input: q.Guard.Rel, guard: q.Guard,
				key:   on(q.Guard, sgf.SharedVars(q.Guard, sgf.Atoms(cond)[0])),
				carry: on(q.Guard, q.Select),
				size:  tupleTagByte + 4 + int64(q.OutArity())*relation.BytesPerField,
				cond:  cond, bits: bits, out: q.Name,
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return t.job(), nil
}
