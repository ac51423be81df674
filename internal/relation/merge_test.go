package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// refMerge is the serial merge Merge must reproduce bit for bit: every
// buffer's tuples added in order to a fresh relation. It reads the
// buffers only, so it must run before Merge consumes them.
func refMerge(name string, arity int, bufs []*Rows) *Relation {
	out := New(name, arity)
	for _, b := range bufs {
		for i := 0; b != nil && i < b.Size(); i++ {
			out.Add(b.Tuple(i))
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

// cutRows cuts every non-empty buffer of bufs at random points into
// consecutive buffers, kept in order: the shape of a split partition's
// pieces, whose buffers concatenate to the unsplit reducer's.
func cutRows(next func(n int) int, bufs []*Rows) []*Rows {
	var out []*Rows
	for _, b := range bufs {
		if b == nil || b.Size() == 0 {
			out = append(out, b)
			continue
		}
		for lo := 0; lo < b.Size(); {
			hi := min(b.Size(), lo+1+next(20))
			p := NewRows(b.arity)
			for i := lo; i < hi; i++ {
				p.Append(b.Tuple(i))
			}
			out = append(out, p)
			lo = hi
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

// tight checks Merge's storage bound: no index is retained, and the
// slab's capacity is at most twice its rows.
func tight(r *Relation) error {
	if r.idx != nil {
		return fmt.Errorf("index of %d slots retained", len(r.idx))
	}
	if c, n := cap(r.vals), len(r.vals); c > 2*n {
		return fmt.Errorf("slab capacity %d for %d values", c, n)
	}
	return nil
}

// TestMergeMatchesSerialAdd drives Merge over randomized source buffers —
// duplicates within and across sources, empty and nil sources, skewed
// sizes, a lone live source (the in-place path), a tiny universe that
// makes most rows duplicates (the trim) — whole and cut into
// consecutive pieces, and requires the exact tuple order, index
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
		for _, bufs := range [][]*Rows{fresh(), cutRows(rng.Intn, fresh())} {
			want := refMerge("Z", 2, bufs)
			got := Merge("Z", 2, bufs)
			if err := sameOrdered(got, want); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := tight(got); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := agree(got, modelOf(want)); err != nil {
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
	m := Merge("Z", 1, []*Rows{nil, NewRows(1), rowsOf(1, src)})
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
	Merge("Z", 2, []*Rows{rowsOf(1, []Tuple{{Value(1)}})})
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
