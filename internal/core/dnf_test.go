package core

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sgf"
)

func atomC(rel, v string) sgf.Condition {
	return sgf.AtomCond{Atom: sgf.NewAtom(rel, sgf.V(v))}
}

func TestToDNFSimple(t *testing.T) {
	// S(x) AND (T(y) OR NOT U(x)) -> (S∧T) ∨ (S∧¬U)
	c := sgf.AndOf(atomC("S", "x"), sgf.OrOf(atomC("T", "y"), sgf.Not{C: atomC("U", "x")}))
	d, err := ToDNF(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 {
		t.Fatalf("DNF = %v", d)
	}
	if len(d[0]) != 2 || d[0][0].Atom.Rel != "S" || d[0][1].Atom.Rel != "T" {
		t.Errorf("first disjunct = %v", d[0])
	}
	if !d[1][1].Negated || d[1][1].Atom.Rel != "U" {
		t.Errorf("second disjunct = %v", d[1])
	}
}

func TestToDNFDeMorgan(t *testing.T) {
	// NOT (S(x) OR T(x)) -> ¬S ∧ ¬T (single disjunct).
	c := sgf.Not{C: sgf.OrOf(atomC("S", "x"), atomC("T", "x"))}
	d, err := ToDNF(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 1 || len(d[0]) != 2 || !d[0][0].Negated || !d[0][1].Negated {
		t.Errorf("DNF = %v", d)
	}
}

func TestToDNFNil(t *testing.T) {
	d, err := ToDNF(nil)
	if err != nil || len(d) != 1 || len(d[0]) != 0 {
		t.Errorf("DNF(nil) = %v, %v", d, err)
	}
}

func TestToDNFExplosionGuard(t *testing.T) {
	// (a1∨b1) ∧ (a2∨b2) ∧ ... doubles each step; 8 clauses = 256 > cap.
	var clauses []sgf.Condition
	for i := 0; i < 8; i++ {
		clauses = append(clauses, sgf.OrOf(
			atomC("A"+strings.Repeat("x", i+1), "x"),
			atomC("B"+strings.Repeat("x", i+1), "x"),
		))
	}
	if _, err := ToDNF(sgf.AndOf(clauses...)); err == nil {
		t.Error("DNF explosion not detected")
	}
}

func TestDNFPreservesSemantics(t *testing.T) {
	// Random conditions over 3 atoms: the DNF evaluates identically on
	// all 8 truth assignments.
	atoms := []sgf.Atom{
		sgf.NewAtom("S", sgf.V("x")),
		sgf.NewAtom("T", sgf.V("x")),
		sgf.NewAtom("U", sgf.V("x")),
	}
	var build func(depth int, seed *uint64) sgf.Condition
	next := func(seed *uint64) uint64 {
		*seed = *seed*6364136223846793005 + 1442695040888963407
		return *seed >> 33
	}
	build = func(depth int, seed *uint64) sgf.Condition {
		if depth == 0 || next(seed)%3 == 0 {
			return sgf.AtomCond{Atom: atoms[next(seed)%3]}
		}
		switch next(seed) % 3 {
		case 0:
			return sgf.Not{C: build(depth-1, seed)}
		case 1:
			return sgf.AndOf(build(depth-1, seed), build(depth-1, seed))
		default:
			return sgf.OrOf(build(depth-1, seed), build(depth-1, seed))
		}
	}
	f := func(seedRaw uint64) bool {
		seed := seedRaw
		c := build(3, &seed)
		d, err := ToDNF(c)
		if err != nil {
			return true // explosion guard is allowed to fire
		}
		back := conditionOfDNF(d)
		for mask := 0; mask < 8; mask++ {
			truth := map[string]bool{}
			for i, a := range atoms {
				truth[a.Key()] = mask&(1<<i) != 0
			}
			if sgf.EvalCondition(c, truth) != sgf.EvalCondition(back, truth) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDedupeLiterals(t *testing.T) {
	s := Literal{Atom: sgf.NewAtom("S", sgf.V("x"))}
	notS := Literal{Atom: sgf.NewAtom("S", sgf.V("x")), Negated: true}
	tt := Literal{Atom: sgf.NewAtom("T", sgf.V("x"))}
	if got, sat := dedupeLiterals([]Literal{s, tt, s}); !sat || len(got) != 2 {
		t.Errorf("dedupe = %v %v", got, sat)
	}
	if _, sat := dedupeLiterals([]Literal{s, notS}); sat {
		t.Error("contradiction not detected")
	}
}

// conditionOfDNF rebuilds a condition from DNF form, to verify the
// transformation preserves semantics.
func conditionOfDNF(d [][]Literal) sgf.Condition {
	var ors []sgf.Condition
	for _, disjunct := range d {
		var ands []sgf.Condition
		for _, l := range disjunct {
			var c sgf.Condition = sgf.AtomCond{Atom: l.Atom}
			if l.Negated {
				c = sgf.Not{C: c}
			}
			ands = append(ands, c)
		}
		if len(ands) == 0 {
			// Empty conjunction is TRUE; representable only trivially.
			return nil
		}
		ors = append(ors, sgf.AndOf(ands...))
	}
	if len(ors) == 0 {
		return nil
	}
	return sgf.OrOf(ors...)
}
