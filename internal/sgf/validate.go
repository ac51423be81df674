package sgf

import (
	"fmt"
)

// Validate checks the semantic well-formedness of an SGF program:
//
//  1. output relation names are pairwise distinct;
//  2. a query may reference previously defined outputs only (no forward
//     or self references), so the induced dependency graph is acyclic;
//  3. every select variable occurs in the guard;
//  4. guardedness: variables shared by two distinct conditional atoms
//     must occur in the guard;
//  5. relation symbols are used with a consistent arity throughout the
//     program, and references to defined outputs match their select arity;
//  6. an output relation may not be used as the guard of a conditional
//     atom inside the query that defines it (implied by 2).
func Validate(p *Program) error {
	if len(p.Queries) == 0 {
		return fmt.Errorf("sgf: empty program")
	}
	outArity := make(map[string]int) // defined outputs so far
	relArity := make(map[string]int) // every symbol seen so far
	for i, q := range p.Queries {
		if q.Name == "" {
			return fmt.Errorf("sgf: query %d has empty output name", i+1)
		}
		if _, dup := outArity[q.Name]; dup {
			return fmt.Errorf("sgf: output relation %s defined twice", q.Name)
		}
		if err := validateBSGF(q, relArity); err != nil {
			return err
		}
		outArity[q.Name] = q.OutArity()
		if prev, ok := relArity[q.Name]; ok && prev != q.OutArity() {
			return fmt.Errorf("sgf: %s: output arity %d conflicts with earlier use of %s with arity %d",
				q.Name, q.OutArity(), q.Name, prev)
		}
		relArity[q.Name] = q.OutArity()
	}
	return CheckForwardRefs(p)
}

func validateBSGF(q *BSGF, relArity map[string]int) error {
	if len(q.Select) == 0 {
		return fmt.Errorf("sgf: %s: empty select list", q.Name)
	}
	if len(q.Guard.Args) == 0 {
		return fmt.Errorf("sgf: %s: guard %s has no arguments", q.Name, q.Guard.Rel)
	}
	if q.Guard.Rel == q.Name {
		return fmt.Errorf("sgf: %s: query references its own output in the guard", q.Name)
	}
	// Rule 3: select variables occur in the guard.
	for _, v := range q.Select {
		if !q.Guard.HasVar(v) {
			return fmt.Errorf("sgf: %s: select variable %s does not occur in guard %s", q.Name, v, q.Guard)
		}
	}
	// Arity consistency for the guard.
	if err := checkArity(q.Name, q.Guard, relArity); err != nil {
		return err
	}
	guardVars := make(map[string]bool)
	for _, v := range q.Guard.Vars() {
		guardVars[v] = true
	}
	atoms := q.CondAtoms()
	for _, a := range atoms {
		if len(a.Args) == 0 {
			return fmt.Errorf("sgf: %s: conditional atom %s has no arguments", q.Name, a.Rel)
		}
		if a.Rel == q.Name {
			return fmt.Errorf("sgf: %s: query references its own output in the condition", q.Name)
		}
		if err := checkArity(q.Name, a, relArity); err != nil {
			return err
		}
	}
	// Rule 4: guardedness across pairs of distinct conditional atoms.
	// (Rule 2, forward references, is checked program-wide by
	// CheckForwardRefs.)
	for i := 0; i < len(atoms); i++ {
		for j := i + 1; j < len(atoms); j++ {
			for _, v := range SharedVars(atoms[i], atoms[j]) {
				if !guardVars[v] {
					return fmt.Errorf("sgf: %s: variable %s is shared by conditional atoms %s and %s but does not occur in the guard %s (query is not guarded)",
						q.Name, v, atoms[i], atoms[j], q.Guard)
				}
			}
		}
	}
	return nil
}

func checkArity(qname string, a Atom, relArity map[string]int) error {
	if prev, ok := relArity[a.Rel]; ok {
		if prev != len(a.Args) {
			return fmt.Errorf("sgf: %s: relation %s used with arity %d but previously with arity %d",
				qname, a.Rel, len(a.Args), prev)
		}
	} else {
		relArity[a.Rel] = len(a.Args)
	}
	return nil
}

// CheckForwardRefs verifies rule 2 explicitly: every reference to a name
// defined by the program must point to an earlier query. Validate performs
// the equivalent check implicitly through definition ordering; this
// function gives a precise diagnostic and is used by the planner.
func CheckForwardRefs(p *Program) error {
	definedAt := make(map[string]int)
	for i, q := range p.Queries {
		definedAt[q.Name] = i
	}
	for i, q := range p.Queries {
		for _, rel := range q.RelationNames() {
			j, isOutput := definedAt[rel]
			if isOutput && j >= i {
				if j == i {
					return fmt.Errorf("sgf: %s references itself", q.Name)
				}
				return fmt.Errorf("sgf: %s references %s, which is defined later", q.Name, rel)
			}
		}
	}
	return nil
}
