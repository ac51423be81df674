package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// refMerge is the serial merge Merge must reproduce bit for bit: every
// run's tuples added in order to a fresh relation. It reads the runs
// only, so it must run before Merge consumes them.
func refMerge(name string, arity int, runs []Run) *Relation {
	out := New(name, arity)
	for _, r := range runs {
		for i := r.Lo; i < r.Hi; i++ {
			out.Add(r.Rows.Tuple(i))
		}
	}
	return out
}

// rowsOf returns a buffer holding ts in order; nil ts is a nil buffer.
func rowsOf(arity int, ts []Tuple) *Rows {
	if ts == nil {
		return nil
	}
	b := NewRows(arity)
	for _, t := range ts {
		b.Append(t)
	}
	return b
}

// wholeRuns is srcs as Merge runs, one whole buffer each; a nil source
// is an empty run.
func wholeRuns(srcs []*Rows) []Run {
	runs := make([]Run, len(srcs))
	for i, s := range srcs {
		if s != nil {
			runs[i] = Run{Rows: s, Hi: s.Size()}
		}
	}
	return runs
}

// cutRuns cuts every non-empty run of runs at random points and deals the
// pieces out in a random interleaving that keeps each source's pieces in
// order: the shape of a split partition's group runs.
func cutRuns(rng *rand.Rand, runs []Run) []Run {
	var pieces [][]Run
	for _, r := range runs {
		var ps []Run
		for lo := r.Lo; lo < r.Hi; {
			hi := min(r.Hi, lo+1+rng.Intn(20))
			ps = append(ps, Run{Rows: r.Rows, Lo: lo, Hi: hi})
			lo = hi
		}
		if len(ps) > 0 {
			pieces = append(pieces, ps)
		}
	}
	var out []Run
	for len(pieces) > 0 {
		i := rng.Intn(len(pieces))
		out = append(out, pieces[i][0])
		if pieces[i] = pieces[i][1:]; len(pieces[i]) == 0 {
			pieces = append(pieces[:i], pieces[i+1:]...)
		}
	}
	return out
}

// sameOrdered compares name, arity, and exact tuple iteration order.
func sameOrdered(a, b *Relation) error {
	if a.Name() != b.Name() || a.Arity() != b.Arity() {
		return fmt.Errorf("header %s/%d vs %s/%d", a.Name(), a.Arity(), b.Name(), b.Arity())
	}
	if a.Size() != b.Size() {
		return fmt.Errorf("size %d vs %d", a.Size(), b.Size())
	}
	for i := 0; i < a.Size(); i++ {
		if !a.Tuple(i).Equal(b.Tuple(i)) {
			return fmt.Errorf("tuple %d: %v vs %v", i, a.Tuple(i), b.Tuple(i))
		}
	}
	return nil
}

// tight checks Merge's storage bound: the slab's capacity is at most
// twice its rows, and the index — at load ≤ 3/4, every row indexed
// once (agree) — at most twice the length those rows need.
func tight(r *Relation) error {
	if c, n := cap(r.vals), len(r.vals); c > 2*n {
		return fmt.Errorf("slab capacity %d for %d values", c, n)
	}
	if n, need := len(r.idx), indexSlots(r.Size()); n > 2*need {
		return fmt.Errorf("index of %d slots for %d rows, which need %d", n, r.Size(), need)
	}
	return nil
}

// TestMergeMatchesSerialAdd drives Merge over randomized source buffers —
// duplicates within and across sources, empty and nil sources, skewed
// sizes, a lone live source (the in-place path), a tiny universe that
// makes most rows duplicates (the trim) — as whole runs and cut into
// interleaved pieces, and requires the exact tuple order, index
// behaviour and storage bound of the serial Add loop.
func TestMergeMatchesSerialAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		nsrc := rng.Intn(7)
		if trial%4 == 0 {
			nsrc = 1
		}
		srcs := make([][]Tuple, nsrc)
		universe := rng.Intn(300) + 1
		if trial%8 == 0 {
			universe = 1 + universe%8
		}
		for i := range srcs {
			switch rng.Intn(8) {
			case 0:
				continue // nil
			case 1:
				srcs[i] = []Tuple{} // empty
				continue
			}
			n := rng.Intn(400)
			for j := 0; j < n; j++ {
				v := int64(rng.Intn(universe))
				srcs[i] = append(srcs[i], Tuple{Value(v), Value(v % 17)})
			}
		}
		fresh := func() []*Rows {
			out := make([]*Rows, len(srcs))
			for i, ts := range srcs {
				out[i] = rowsOf(2, ts)
			}
			return out
		}
		for _, runs := range [][]Run{wholeRuns(fresh()), cutRuns(rng, wholeRuns(fresh()))} {
			want := refMerge("Z", 2, runs)
			got := Merge("Z", 2, runs)
			if err := sameOrdered(got, want); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := agree(got, modelOf(want)); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := tight(got); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// modelOf is r's contents as the reference model.
func modelOf(r *Relation) *model {
	m := newModel(r.Arity())
	for i := 0; i < r.Size(); i++ {
		m.add(r.Tuple(i))
	}
	return m
}

func TestMergeEmptyAndSingle(t *testing.T) {
	if m := Merge("Z", 3, nil); m.Size() != 0 || m.Arity() != 3 || m.Name() != "Z" {
		t.Errorf("empty merge = %s", m)
	}
	src := []Tuple{{Value(1)}, {Value(2)}}
	m := Merge("Z", 1, wholeRuns([]*Rows{nil, NewRows(1), rowsOf(1, src)}))
	if m.Name() != "Z" || m.Size() != 2 || !m.Tuple(0).Equal(src[0]) || !m.Equal(FromTuples("S", 1, src)) {
		t.Errorf("single-source merge = %s", m.Dump())
	}
}

func TestMergeArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	Merge("Z", 2, wholeRuns([]*Rows{rowsOf(1, []Tuple{{Value(1)}})}))
}

func TestRowsAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	NewRows(2).Append(Tuple{Value(1)})
}

func TestClonePresizedAndDeep(t *testing.T) {
	r := New("R", 2)
	for i := int64(0); i < 100; i++ {
		r.Add(Tuple{Value(i), Value(i % 7)})
	}
	c := r.Clone()
	if !c.Equal(r) || c.Name() != r.Name() || c.Arity() != r.Arity() {
		t.Fatal("clone differs")
	}
	for i := 0; i < r.Size(); i++ {
		if !c.Tuple(i).Equal(r.Tuple(i)) {
			t.Fatalf("clone order differs at %d", i)
		}
	}
	// Deep: mutating an original tuple's values must not leak into the
	// clone, and growing the clone must not touch the original.
	r.Tuple(0)[0] = Value(999)
	if c.Tuple(0)[0] == Value(999) {
		t.Error("clone shares tuple storage")
	}
	c.Add(Tuple{Value(-1), Value(-2)})
	if r.Size() != 100 || c.Size() != 101 {
		t.Errorf("sizes: orig %d clone %d", r.Size(), c.Size())
	}
}

func TestAddAllAndGrow(t *testing.T) {
	r := New("R", 1)
	r.Add(Tuple{Value(1)})
	bulk := []Tuple{{Value(1)}, {Value(2)}, {Value(3)}, {Value(2)}}
	if added := r.AddAll(bulk); added != 2 {
		t.Errorf("AddAll added %d, want 2", added)
	}
	if r.Size() != 3 || !r.Contains(Tuple{Value(3)}) {
		t.Errorf("after AddAll: %s", r)
	}
	// Grow must be content-neutral and idempotent.
	r.Grow(1000)
	r.Grow(0)
	r.Grow(-5)
	if r.Size() != 3 || !r.Contains(Tuple{Value(1)}) || r.Contains(Tuple{Value(9)}) {
		t.Errorf("Grow changed contents: %s", r)
	}
	if r.Tuple(0)[0] != Value(1) || r.Tuple(2)[0] != Value(3) {
		t.Error("Grow changed tuple order")
	}
	// Growing then bulk-loading keeps set semantics.
	if added := r.AddAll([]Tuple{{Value(3)}, {Value(4)}}); added != 1 {
		t.Errorf("second AddAll added %d, want 1", added)
	}
}

func TestAddAllArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	New("R", 2).AddAll([]Tuple{{Value(1)}})
}
