package lab

import (
	"math/rand"

	gumbo "repro"

	"repro/internal/relation"
	"repro/internal/sgf"
)

// Chain correlation: the workload builder draws every base relation's
// values independently, so a conditional atom over an earlier query's
// output — the defining construct of the chain and multi shapes —
// almost never matches: the output holds values projected from one
// guard's columns, the next guard's columns are drawn from a different
// stream, and the chain runs dry after its first link (the frozen
// chain goldens used to read {163, 0, 0}). correlateOutputRefs repairs
// this after the base build: for a fraction of each affected guard's
// tuples it copies column values from actual output tuples (computed
// by the reference evaluator on the data built so far) into the guard
// positions the output-referencing atom reads, and seeds the query's
// positive base atoms with tuples matching the rewritten guard row, so
// downstream outputs are selective but nonempty. Deterministic in the
// scenario seed.

// correlateFrac is the fraction of guard tuples rewritten to flow
// through output-referencing atoms: high enough that conjunctions with
// ~0.5-selective base atoms keep a visible population, low enough that
// the output stays a strict subset of the guard.
const correlateFrac = 0.45

// polarity-aware leaf walk: positive atoms are collected, atoms under
// an odd number of negations are ignored (forcing a match there would
// shrink the output, not grow it).
func positiveAtoms(c sgf.Condition, neg bool, out *[]sgf.Atom) {
	switch x := c.(type) {
	case sgf.AtomCond:
		if !neg {
			*out = append(*out, x.Atom)
		}
	case sgf.Not:
		positiveAtoms(x.C, !neg, out)
	case sgf.And:
		for _, cc := range x.Cs {
			positiveAtoms(cc, neg, out)
		}
	case sgf.Or:
		for _, cc := range x.Cs {
			positiveAtoms(cc, neg, out)
		}
	}
}

// correlateOutputRefs rewrites db in place. Queries whose conditions
// never reference earlier outputs (and queries guarded by an output,
// which cannot be rewritten) are left untouched, so star- and
// union-shaped scenarios keep their pristine distributions.
func correlateOutputRefs(p *sgf.Program, db *relation.Database, seed int64) {
	defined := map[string]bool{}
	for qi, q := range p.Queries {
		var refs, bases []sgf.Atom
		var leaves []sgf.Atom
		positiveAtoms(q.Where, false, &leaves)
		for _, a := range leaves {
			if defined[a.Rel] {
				refs = append(refs, a)
			} else {
				bases = append(bases, a)
			}
		}
		defined[q.Name] = true
		if len(refs) == 0 || defined[q.Guard.Rel] {
			continue
		}
		guard := db.Relation(q.Guard.Rel)
		if guard == nil || guard.Size() == 0 {
			continue
		}
		// Positions of the guard's variables (guard atoms bind fresh
		// distinct variables, one per column).
		varPos := map[string]int{}
		for i, t := range q.Guard.Args {
			if t.IsVar() {
				varPos[t.Var] = i
			}
		}
		// The referenced outputs' actual contents, on the data correlated
		// so far (earlier chain links are already flowing when this query
		// is processed).
		gq, err := gumbo.Parse(p.String())
		if err != nil {
			return // generated programs always parse; bail rather than guess
		}
		outs, err := gumbo.EvalAll(gq, db)
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(seed ^ 0x7ca1ee ^ int64(qi)*0x9e3779b9))
		rebuilt := relation.New(guard.Name(), guard.Arity())
		grown := map[string]*relation.Relation{} // cond relations gaining match tuples
		for gi, gn := 0, guard.Size(); gi < gn; gi++ {
			nt := guard.Tuple(gi).Clone()
			if rng.Float64() < correlateFrac {
				copied := false
				for _, a := range refs {
					src := outs.Relation(a.Rel)
					if src == nil || src.Size() == 0 {
						continue
					}
					o := src.Tuple(rng.Intn(src.Size()))
					for j, arg := range a.Args {
						if pos, ok := varPos[arg.Var]; arg.IsVar() && ok {
							nt[pos] = o[j]
							copied = true
						}
					}
				}
				if copied {
					// The rewritten row must also pass the query's positive
					// base atoms, or a conjunction would drop it again: seed
					// each with the matching tuple.
					for _, a := range bases {
						rel := grown[a.Rel]
						if rel == nil {
							base := db.Relation(a.Rel)
							if base == nil {
								continue
							}
							rel = base.Clone()
							grown[a.Rel] = rel
						}
						match := make(relation.Tuple, len(a.Args))
						ok := true
						for j, arg := range a.Args {
							if arg.IsVar() {
								pos, bound := varPos[arg.Var]
								if !bound {
									ok = false
									break
								}
								match[j] = nt[pos]
							} else {
								match[j] = arg.Const
							}
						}
						if ok {
							rel.Add(match)
						}
					}
				}
			}
			rebuilt.Add(nt)
		}
		db.Put(rebuilt)
		for _, rel := range grown {
			db.Put(rel)
		}
	}
}
