package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// compareRows fails the test unless job wrote, to every output it
// declares, exactly the facts want lists for it, in the same order; an
// output want does not name must stay empty.
func compareRows(t *testing.T, what string, job *mr.Job, got *relation.Database, want map[string][]relation.Tuple) {
	t.Helper()
	for name := range want {
		if _, ok := job.Outputs[name]; !ok {
			t.Fatalf("%s: %s is not an output of %s", what, name, job.Name)
		}
	}
	for name := range job.Outputs {
		var rows []relation.Tuple
		if rel := got.Relation(name); rel != nil {
			rows = rel.Tuples()
		}
		if !slices.EqualFunc(rows, want[name], slices.Equal) {
			t.Fatalf("%s: %s = %v, want %v", what, name, rows, want[name])
		}
	}
}

// flagJob is a role table of two verdicts that write flag classes: facts
// of G(x, y) request, under x, y followed by the flags of classes 0
// and 1 into O1 whatever the asserts say, and the whole fact followed by
// the same flags into O2 when class 0 (a fact of A(x)) meets it; facts
// of B(x) assert class 1.
func flagJob(t *testing.T) *mr.Job {
	t.Helper()
	g := sgf.NewAtom("G", sgf.V("x"), sgf.V("y"))
	a, b := sgf.NewAtom("A", sgf.V("x")), sgf.NewAtom("B", sgf.V("x"))
	tbl := newReconcile("flag job", "flags")
	for _, err := range []error{
		tbl.output("O1", 3),
		tbl.output("O2", 4),
		tbl.request(request{input: "G", guard: g, key: on(g, []string{"x"}), carry: on(g, []string{"y"}), size: 4, flags: 2, out: "O1"}),
		tbl.request(request{input: "G", guard: g, key: on(g, []string{"x"}), carry: wholeTuple(2), size: 4, flags: 2,
			cond: sgf.AtomCond{Atom: a}, bits: map[string]int32{a.Key(): 0}, out: "O2"}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	tbl.assert("A", assertRole{matcher: sgf.NewMatcher(a), key: on(a, []string{"x"}), class: 0})
	tbl.assert("B", assertRole{matcher: sgf.NewMatcher(b), key: on(b, []string{"x"}), class: 1})
	return tbl.job()
}

// TestReduceWalk reduces groups of every shape the reducer's two walks
// meet — asserts only, requests only, a request before any assert,
// asserts after the last request, interleaved messages, and groups with
// and without a request side by side — on an MSJ table, a keyed (EVAL)
// table and a table of two verdicts with flag classes, and holds the
// facts written to the ones each case states: a request is decided
// against every assert of its group, wherever the assert arrives, and
// the facts come out in arrival order.
func TestReduceWalk(t *testing.T) {
	msj, err := NewMSJJob("msj", ExtractEquations(sgf.MustParse(`Z := SELECT x FROM R(x, y) WHERE S(x) AND T(y);`).Queries))
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvalJob("eval", []EvalSpec{{Query: sgf.MustParse(`Z := SELECT x FROM R(x, y) WHERE S(x) AND NOT T(y);`).Queries[0], XNames: []string{"X0", "X1"}}})
	if err != nil {
		t.Fatal(err)
	}
	flags := flagJob(t)

	// The MSJ table's verdict 0 writes its carried id to X_Z_0 under
	// class 0 (a fact of S), verdict 1 to X_Z_1 under class 1 (T).
	k1, k2 := vs(5), vs(6)
	req := func(key []byte, verdict, id int64) shuffled { return shuffled{key, TagRequest, vs(verdict, id)} }
	as := func(key []byte, class int64) shuffled { return shuffled{key, TagAssert, vs(class)} }
	// EVAL keys are (query, guard tuple id); the request carries the
	// selected x, written to Z under class 0 (S's mark) without class 1
	// (T's).
	e1, e2 := vs(0, 1), vs(0, 2)
	// The flag table's requests carry y (verdict 0) and (x, y) (verdict 1).
	f0 := func(y int64) shuffled { return shuffled{k1, TagRequest, vs(0, y)} }
	f1 := func(x, y int64) shuffled { return shuffled{k1, TagRequest, vs(1, x, y)} }
	type rows = map[string][]relation.Tuple

	for _, c := range []struct {
		name string
		job  *mr.Job
		recs []shuffled
		want rows
	}{
		{"asserts only", msj, []shuffled{as(k1, 0), as(k1, 1), as(k1, 0)}, nil},
		{"requests only", msj, []shuffled{req(k1, 0, 1), req(k1, 1, 2)}, nil},
		{"a request before any assert", msj, []shuffled{req(k1, 0, 1), req(k1, 1, 2), as(k1, 0)},
			rows{"X_Z_0": {{1}}}},
		{"asserts after the last request", msj, []shuffled{as(k1, 1), req(k1, 0, 1), req(k1, 1, 2), as(k1, 0), as(k1, 0)},
			rows{"X_Z_0": {{1}}, "X_Z_1": {{2}}}},
		{"interleaved", msj, []shuffled{req(k1, 0, 1), as(k1, 1), req(k1, 1, 2), req(k1, 0, 3), as(k1, 0), req(k1, 1, 4)},
			rows{"X_Z_0": {{1}, {3}}, "X_Z_1": {{2}, {4}}}},
		{"groups with and without a request", msj, []shuffled{as(k1, 0), as(k2, 1), req(k2, 1, 7), as(k1, 1), req(k2, 0, 8)},
			rows{"X_Z_1": {{7}}}},
		{"keyed table", eval, []shuffled{
			{e1, TagAssert, vs(1)}, {e2, TagRequest, vs(0, 20)}, {e1, TagRequest, vs(0, 10)},
			{e2, TagAssert, vs(0)}, {e1, TagAssert, vs(0)}, {vs(0, 3), TagAssert, vs(0)},
		}, rows{"Z": {{20}}}},
		{"two verdicts with flag classes", flags, []shuffled{
			f0(1), as(k1, 1), f1(5, 2), f0(3), as(k1, 0), f1(5, 4), as(k2, 0), {k2, TagRequest, vs(0, 9)},
		}, rows{"O1": {{1, 1, 1}, {3, 1, 1}, {9, 1, 0}}, "O2": {{5, 2, 1, 1}, {5, 4, 1, 1}}}},
		{"flag classes, no assert", flags, []shuffled{f0(1), f1(5, 2)}, rows{"O1": {{1, 0, 0}}}},
	} {
		got, err := reduceRecords(c.job, c.recs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		compareRows(t, c.name, c.job, got, c.want)
	}
}

// mapByName is reconcile.Map as it was before mappers were told their
// input's position: the roles are found by the input's name. It is the
// oracle for the positional lookup.
func mapByName(t *reconcile, input string, id int, f relation.Tuple, emit *mr.Emitter) {
	roles := t.rolesOf(input)
	if roles == nil {
		return
	}
	var kb [48]byte
	var ob [8]relation.Value
	for i := range roles.requests {
		r := &roles.requests[i]
		if !r.matcher.Matches(f) {
			continue
		}
		key := r.key.appendKey(t.lead(kb[:0], r.verdict), id, f)
		if t.heavy[string(key)] {
			key = appendSalt(key, saltOf(int64(id), saltFactor))
		}
		Request{Verdict: r.verdict, Tuple: r.carry.appendTo(ob[:0], id, f)}.Emit(emit, key, r.size)
	}
	for i := range roles.asserts {
		a := &roles.asserts[i]
		if !a.matcher.Matches(f) {
			continue
		}
		key := a.key.appendKey(t.lead(kb[:0], a.of), id, f)
		if !t.heavy[string(key)] {
			Assert{Class: a.class}.Emit(emit, key)
			continue
		}
		for s := 0; s < saltFactor; s++ {
			Assert{Class: a.class}.Emit(emit, appendSalt(key, s))
		}
	}
}

// sampleFacts are facts of arity 1, 2 and 3 over a few small values, so
// that repeated-variable and constant patterns both match some of them
// and some not.
func sampleFacts() []relation.Tuple {
	var facts []relation.Tuple
	for i := int64(0); i < 12; i++ {
		facts = append(facts,
			relation.Tuple{relation.Value(i % 4)},
			relation.Tuple{relation.Value(i % 4), relation.Value(i % 3)},
			relation.Tuple{relation.Value(i % 2), relation.Value(i % 3), relation.Value(i % 4)})
	}
	return facts
}

// TestPositionalRolesMatchNames maps the sample facts of every input of
// one job of each kind the role table builds — MSJ, salted MSJ, EVAL,
// 1-ROUND in both modes, the SEQ filter and its distinct, HPAR's outer
// join, and both stream jobs — by position, and by name through
// mapByName, each into an emitter of its own. The two emitters must
// end up equal: the same arena bytes, which are every record's key,
// tag, modelled size and payload in emit order, and the same counts.
func TestPositionalRolesMatchNames(t *testing.T) {
	prog := sgf.MustParse(`Z := SELECT x FROM R(x, y) WHERE S(x) AND NOT T(y);`)
	eqs := ExtractEquations(prog.Queries)
	msj, err := NewMSJJob("msj", eqs)
	if err != nil {
		t.Fatal(err)
	}
	heavy := map[string]bool{string(relation.Tuple{1}.AppendKey(nil)): true, string(relation.Tuple{2}.AppendKey(nil)): true}
	salted, err := NewMSJJobSkew("msj", eqs, heavy)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ParPlan("par", prog.Queries)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewOneRoundJob("shared", sgf.MustParse(`Z := SELECT y FROM R(x, y) WHERE S(x) AND NOT T(x);`).Queries)
	if err != nil {
		t.Fatal(err)
	}
	disjunctive, err := NewOneRoundJob("disjunctive", sgf.MustParse(`Z := SELECT y FROM R(x, y) WHERE S(x) OR T(y);`).Queries)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SeqPlan("seq", sgf.MustParse(`Z := SELECT x FROM R(x, y) WHERE (S(x) AND T(y)) OR U(x, x);`).Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	r := sgf.NewAtom("R", sgf.V("x"), sgf.V("y"))
	outer, err := NewOuterJoinJob("outer", "R", "H", r, r, []sgf.Atom{sgf.NewAtom("S", sgf.V("x")), sgf.NewAtom("T", sgf.V("x"))})
	if err != nil {
		t.Fatal(err)
	}
	type kind struct {
		what string
		job  *mr.Job
	}
	jobs := []kind{
		{"MSJ", msj}, {"salted MSJ", salted}, {"EVAL", par.Jobs[len(par.Jobs)-1]},
		{"shared-key 1-ROUND", shared}, {"disjunctive 1-ROUND", disjunctive}, {"outer join", outer},
		{"request stream", streamJob(false, r, []string{"y"})},
		{"assert stream", streamJob(true, sgf.NewAtom("S", sgf.V("x"), sgf.C(2)), []string{"x"})},
	}
	for i, job := range seq.Jobs {
		jobs = append(jobs, kind{fmt.Sprint("SEQ job ", i), job})
	}
	kinds := map[string]bool{}
	for _, k := range jobs {
		what, job := k.what, k.job
		var byPart, byName mr.Emitter
		for part, input := range job.Inputs {
			for id, f := range sampleFacts() {
				job.Mapper.Map(part, id, f, &byPart)
				switch m := job.Mapper.(type) {
				case *reconcile:
					mapByName(m, input, id, f, &byName)
				case *distinct: // it never asked its input
					m.Map(-1, id, f, &byName)
				default:
					t.Fatalf("%s: mapper %T", what, m)
				}
			}
		}
		if reflect.DeepEqual(byName, mr.Emitter{}) {
			t.Fatalf("%s: the sample facts emit nothing", what)
		}
		if !reflect.DeepEqual(byPart, byName) {
			t.Errorf("%s: mapping by position emits another record stream than mapping by name", what)
		}
		kinds[fmt.Sprintf("%T", job.Mapper)] = true
	}
	if len(kinds) != 2 {
		t.Errorf("the jobs cover mappers %v, want the role table and distinct", kinds)
	}
}
