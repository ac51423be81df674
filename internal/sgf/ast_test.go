package sgf

import (
	"testing"

	"repro/internal/relation"
)

func TestAtomKeyDistinguishes(t *testing.T) {
	cases := []struct {
		a, b  Atom
		equal bool
	}{
		{NewAtom("S", V("x"), V("y")), NewAtom("S", V("x"), V("y")), true},
		{NewAtom("S", V("x"), V("y")), NewAtom("S", V("y"), V("x")), false},
		{NewAtom("S", V("x")), NewAtom("T", V("x")), false},
		{NewAtom("S", V("x"), V("x")), NewAtom("S", V("x"), V("y")), false},
		{NewAtom("S", CInt(1)), NewAtom("S", CStr("1")), false},
		{NewAtom("S", CStr("a")), NewAtom("S", CStr("a")), true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.equal {
			t.Errorf("%v.Equal(%v) = %v, want %v (keys %q %q)", c.a, c.b, got, c.equal, c.a.Key(), c.b.Key())
		}
	}
}

func TestAtomVarsOrder(t *testing.T) {
	a := NewAtom("R", V("y"), CInt(4), V("x"), V("y"))
	vars := a.Vars()
	if len(vars) != 2 || vars[0] != "y" || vars[1] != "x" {
		t.Errorf("Vars = %v", vars)
	}
}

func TestSharedVarsOrderedByGuard(t *testing.T) {
	guard := NewAtom("R", V("x"), V("y"), V("z"))
	cond := NewAtom("S", V("z"), V("x"), V("w"))
	got := SharedVars(guard, cond)
	if len(got) != 2 || got[0] != "x" || got[1] != "z" {
		t.Errorf("SharedVars = %v", got)
	}
}

func TestVarPositionsFirstOccurrence(t *testing.T) {
	a := NewAtom("R", V("x"), V("y"), V("x"))
	pos := a.VarPositions([]string{"y", "x"})
	if pos[0] != 1 || pos[1] != 0 {
		t.Errorf("VarPositions = %v", pos)
	}
}

func TestCondEval(t *testing.T) {
	s := AtomCond{NewAtom("S", V("x"))}
	u := AtomCond{NewAtom("U", V("x"))}
	c := OrOf(AndOf(s, Not{u}), u)
	eval := func(sv, uv bool) bool {
		return EvalCondition(c, map[string]bool{
			s.Atom.Key(): sv,
			u.Atom.Key(): uv,
		})
	}
	// (S AND NOT U) OR U == S OR U
	if !eval(true, false) || !eval(false, true) || eval(false, false) || !eval(true, true) {
		t.Error("condition truth table wrong")
	}
}

func TestNilConditionIsTrue(t *testing.T) {
	if !EvalCondition(nil, nil) {
		t.Error("nil condition should be true")
	}
	if Atoms(nil) != nil {
		t.Error("Atoms(nil) should be nil")
	}
}

func TestAndOrFlattening(t *testing.T) {
	a := AtomCond{NewAtom("A", V("x"))}
	b := AtomCond{NewAtom("B", V("x"))}
	c := AtomCond{NewAtom("C", V("x"))}
	and := AndOf(AndOf(a, b), c)
	if got, ok := and.(And); !ok || len(got.Cs) != 3 {
		t.Errorf("AndOf did not flatten: %v", and)
	}
	or := OrOf(a, OrOf(b, c))
	if got, ok := or.(Or); !ok || len(got.Cs) != 3 {
		t.Errorf("OrOf did not flatten: %v", or)
	}
	if single, ok := AndOf(a).(AtomCond); !ok || !single.Atom.Equal(a.Atom) {
		t.Errorf("AndOf(single) = %v", AndOf(a))
	}
	// AND inside OR must not be flattened (different operators).
	mixed := OrOf(AndOf(a, b), c)
	if got, ok := mixed.(Or); !ok || len(got.Cs) != 2 {
		t.Errorf("OrOf flattened across operators: %v", mixed)
	}
}

func TestAtomsDeduplicates(t *testing.T) {
	s := AtomCond{NewAtom("S", V("x"))}
	c := OrOf(AndOf(s, Not{s}), s)
	if got := Atoms(c); len(got) != 1 {
		t.Errorf("Atoms = %v", got)
	}
}

func TestProgramCloneIndependent(t *testing.T) {
	p := MustParse(`Z := SELECT x FROM R(x, y) WHERE S(x) AND T(y);`)
	c := p.Clone()
	c.Queries[0].Select[0] = "y"
	c.Queries[0].Guard.Args[0] = V("q")
	if p.Queries[0].Select[0] != "x" || p.Queries[0].Guard.Args[0].Var != "x" {
		t.Error("Clone shares storage")
	}
}

func TestConformsTuple(t *testing.T) {
	mk := func(vals ...int64) relation.Tuple {
		tp := make(relation.Tuple, len(vals))
		for i, v := range vals {
			tp[i] = relation.Value(v)
		}
		return tp
	}
	cases := []struct {
		atom Atom
		tup  relation.Tuple
		want bool
	}{
		{NewAtom("R", V("x"), CInt(2), V("x"), V("y")), mk(1, 2, 1, 3), true},
		{NewAtom("R", V("x"), CInt(2), V("x"), V("y")), mk(1, 2, 2, 3), false},
		{NewAtom("R", V("x"), CInt(2), V("x"), V("y")), mk(1, 9, 1, 3), false},
		{NewAtom("R", V("x"), V("y")), mk(1), false},
		{NewAtom("R", V("x"), V("x")), mk(5, 5), true},
		{NewAtom("R", CStr("bad")), relation.Tuple{relation.String("bad")}, true},
		{NewAtom("R", CStr("bad")), relation.Tuple{relation.String("good")}, false},
	}
	for _, c := range cases {
		if got := ConformsTuple(c.tup, c.atom); got != c.want {
			t.Errorf("ConformsTuple(%v, %v) = %v, want %v", c.tup, c.atom, got, c.want)
		}
		m := NewMatcher(c.atom)
		if got := m.Matches(c.tup); got != c.want {
			t.Errorf("Matcher(%v).Matches(%v) = %v, want %v", c.atom, c.tup, got, c.want)
		}
	}
}

func TestProjectPaperExample(t *testing.T) {
	// From §4: f = R(1,2,1,3), α = R(x,y,x,z), π_{α;x,z}(f) = (1,3).
	f := relation.Tuple{relation.Value(1), relation.Value(2), relation.Value(1), relation.Value(3)}
	alpha := NewAtom("R", V("x"), V("y"), V("x"), V("z"))
	if !ConformsTuple(f, alpha) {
		t.Fatal("paper example fact does not conform")
	}
	got := Project(f, alpha, []string{"x", "z"})
	want := relation.Tuple{relation.Value(1), relation.Value(3)}
	if !got.Equal(want) {
		t.Errorf("Project = %v, want %v", got, want)
	}
}

func TestBinding(t *testing.T) {
	f := relation.Tuple{relation.Value(1), relation.Value(2)}
	a := NewAtom("R", V("x"), V("y"))
	b := Binding(f, a)
	if b["x"] != relation.Value(1) || b["y"] != relation.Value(2) {
		t.Errorf("Binding = %v", b)
	}
}

// TestCompileConditionMatchesEval checks the compiled evaluator agrees
// with EvalCondition on every truth assignment of a set of
// representative conditions (the reducer hot path must be a pure
// strength reduction), wherever the atoms' bits sit: at the start of
// the set, and spread over positions 63, 64, 127 and 128 — either side
// of the first two word boundaries.
func TestCompileConditionMatchesEval(t *testing.T) {
	conds := []string{
		`Z := SELECT x FROM R(x, y) WHERE S(x);`,
		`Z := SELECT x FROM R(x, y) WHERE NOT S(x);`,
		`Z := SELECT x FROM R(x, y) WHERE S(x) AND T(y);`,
		`Z := SELECT x FROM R(x, y) WHERE S(x) OR NOT T(y);`,
		`Z := SELECT x FROM R(x, y) WHERE S(x) AND (T(y) OR NOT U(x));`,
		`Z := SELECT x FROM R(x, y) WHERE (S(x) AND NOT T(x) AND NOT U(x)) OR (NOT S(x) AND T(x) AND NOT U(x)) OR (NOT S(x) AND NOT T(x) AND U(x));`,
		`Z := SELECT x FROM R(x, y) WHERE S(x) AND S(y) AND NOT (T(x) OR U(y));`,
	}
	layouts := [][]int{{0, 1, 2, 3}, {63, 64, 127, 128}, {128, 63, 0, 64}}
	for _, src := range conds {
		q := MustParse(src).Queries[0]
		atoms := q.CondAtoms()
		for _, layout := range layouts {
			bitIdx := make(map[string]int, len(atoms))
			for i, a := range atoms {
				bitIdx[a.Key()] = layout[i]
			}
			compiled, err := CompileCondition(q.Where, func(k string) (int, bool) {
				i, ok := bitIdx[k]
				return i, ok
			})
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			for mask := 0; mask < 1<<len(atoms); mask++ {
				truth := make(map[string]bool, len(atoms))
				bits := make([]uint64, 3)
				for i, a := range atoms {
					if mask&(1<<i) != 0 {
						truth[a.Key()] = true
						bits[layout[i]/64] |= 1 << (layout[i] % 64)
					}
				}
				if got, want := compiled.Eval(bits), EvalCondition(q.Where, truth); got != want {
					t.Errorf("%s: layout %v, mask %b: compiled=%v eval=%v", src, layout, mask, got, want)
				}
			}
		}
	}
	// Nil condition (absent WHERE) is constantly true, over no bits at all.
	if c, err := CompileCondition(nil, func(string) (int, bool) { return 0, false }); err != nil || !c.Eval(nil) {
		t.Errorf("nil condition: err %v, want constantly true", err)
	}
	// An atom without a position is a build error, not a silent fallback.
	q := MustParse(`Z := SELECT x FROM R(x, y) WHERE S(x) AND NOT T(y);`).Queries[0]
	sOnly := func(k string) (int, bool) { return 0, k == q.CondAtoms()[0].Key() }
	if _, err := CompileCondition(q.Where, sOnly); err == nil {
		t.Error("unmapped atom compiled")
	}
	if _, err := CompileCondition(q.Where, func(string) (int, bool) { return -1, true }); err == nil {
		t.Error("negative bit position compiled")
	}
}
