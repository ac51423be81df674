// Package refeval provides a direct in-memory reference evaluator for SGF
// queries, implementing the paper's semantics (§3.1) without MapReduce.
// It serves as the oracle that all MapReduce evaluation paths are tested
// against, and as a convenient way to evaluate small queries.
package refeval

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/sgf"
)

// EvalBSGF evaluates a single basic query against db, which must contain
// every relation mentioned by the query (including any outputs of earlier
// queries in a program). The result has name q.Name and arity
// len(q.Select).
func EvalBSGF(q *sgf.BSGF, db *relation.Database) (*relation.Relation, error) {
	guardRel := db.Relation(q.Guard.Rel)
	if guardRel == nil {
		return nil, fmt.Errorf("refeval: %s: unknown relation %s", q.Name, q.Guard.Rel)
	}
	if guardRel.Arity() != q.Guard.Arity() {
		return nil, fmt.Errorf("refeval: %s: guard %s has arity %d but relation has arity %d",
			q.Name, q.Guard, q.Guard.Arity(), guardRel.Arity())
	}
	atoms := q.CondAtoms()
	indexes := make([]*condIndex, len(atoms))
	for i, a := range atoms {
		idx, err := buildCondIndex(q, a, db)
		if err != nil {
			return nil, err
		}
		indexes[i] = idx
	}
	out := relation.New(q.Name, len(q.Select))
	guardMatcher := sgf.NewMatcher(q.Guard)
	project := sgf.NewProjector(q.Guard, q.Select)
	truth := make(map[string]bool, len(atoms))
	for i, n := 0, guardRel.Size(); i < n; i++ {
		f := guardRel.Tuple(i)
		if !guardMatcher.Matches(f) {
			continue
		}
		for i, a := range atoms {
			truth[a.Key()] = indexes[i].holds(f)
		}
		if sgf.EvalCondition(q.Where, truth) {
			out.Add(project.Apply(f))
		}
	}
	return out, nil
}

// condIndex answers, for one conditional atom κ, whether a guard fact's
// join-key projection has a matching conforming κ-fact: the semi-join
// membership test guard(σ(t̄)) ∈ R(t̄) ⋉ κ.
type condIndex struct {
	guardProj sgf.Projector // π_{guard;z̄}
	keys      map[string]bool
	anyFact   bool // used when the join key z̄ is empty
	emptyKey  bool
}

func buildCondIndex(q *sgf.BSGF, atom sgf.Atom, db *relation.Database) (*condIndex, error) {
	rel := db.Relation(atom.Rel)
	if rel == nil {
		return nil, fmt.Errorf("refeval: %s: unknown relation %s", q.Name, atom.Rel)
	}
	if rel.Arity() != atom.Arity() {
		return nil, fmt.Errorf("refeval: %s: atom %s has arity %d but relation has arity %d",
			q.Name, atom, atom.Arity(), rel.Arity())
	}
	shared := sgf.SharedVars(q.Guard, atom)
	idx := &condIndex{emptyKey: len(shared) == 0}
	matcher := sgf.NewMatcher(atom)
	if idx.emptyKey {
		for i, n := 0, rel.Size(); i < n && !idx.anyFact; i++ {
			idx.anyFact = matcher.Matches(rel.Tuple(i))
		}
		return idx, nil
	}
	idx.guardProj = sgf.NewProjector(q.Guard, shared)
	condProj := sgf.NewProjector(atom, shared)
	idx.keys = make(map[string]bool)
	rel.Each(func(_ int, g relation.Tuple) {
		if matcher.Matches(g) {
			idx.keys[condProj.Apply(g).Key()] = true
		}
	})
	return idx, nil
}

func (ci *condIndex) holds(guardFact relation.Tuple) bool {
	if ci.emptyKey {
		return ci.anyFact
	}
	return ci.keys[ci.guardProj.Apply(guardFact).Key()]
}

// EvalProgram evaluates an SGF program bottom-up in definition order,
// returning a database containing every output relation Z1..Zn. The input
// database is not modified.
func EvalProgram(p *sgf.Program, db *relation.Database) (*relation.Database, error) {
	working := relation.NewDatabase()
	for _, r := range db.Relations() {
		working.Put(r)
	}
	outputs := relation.NewDatabase()
	for _, q := range p.Queries {
		res, err := EvalBSGF(q, working)
		if err != nil {
			return nil, err
		}
		working.Put(res)
		outputs.Put(res)
	}
	return outputs, nil
}

// EvalOutput evaluates the program and returns just the final output
// relation.
func EvalOutput(p *sgf.Program, db *relation.Database) (*relation.Relation, error) {
	outs, err := EvalProgram(p, db)
	if err != nil {
		return nil, err
	}
	return outs.Relation(p.OutputName()), nil
}
