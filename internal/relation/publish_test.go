package relation

import (
	"sync"
	"testing"
)

// TestPublishedRelationHoldsNoIndex pins the storage rule of
// publication: a relation put into a Database, a Merge result and a
// FromTuples result hold no index, and a Clone of any holds none
// either. The owner's first Add or Contains builds one, answers as the
// model does (re-adding a present tuple returns false), and keeps the
// insertion order; Equal, in either direction, leaves no index behind.
func TestPublishedRelationHoldsNoIndex(t *testing.T) {
	rows := []Tuple{mkTuple(3, 1), mkTuple(1, 2), mkTuple(2, 2), mkTuple(0, 9)}
	sources := []struct {
		name  string
		build func() *Relation
	}{
		{"put", func() *Relation {
			r := New("R", 2)
			for _, tp := range rows {
				r.Add(tp)
			}
			NewDatabase().Put(r)
			return r
		}},
		{"merge", func() *Relation {
			return Merge("R", 2, []*Rows{rowsOf(2, rows[:3]), rowsOf(2, rows[1:])})
		}},
		{"from tuples", func() *Relation {
			return FromTuples("R", 2, append(rows, rows[0]))
		}},
		{"clone of put", func() *Relation {
			r := FromTuples("R", 2, rows)
			r.Contains(rows[0])
			NewDatabase().Put(r)
			return r.Clone()
		}},
	}
	ops := []struct {
		name string
		op   func(r *Relation, m *model) (got, want bool)
		// keeps: the op builds r's index and keeps it.
		keeps bool
	}{
		{"Contains present", func(r *Relation, m *model) (bool, bool) {
			return r.Contains(rows[2]), true
		}, true},
		{"Contains absent", func(r *Relation, m *model) (bool, bool) {
			return r.Contains(mkTuple(2, 3)), false
		}, true},
		{"Add present", func(r *Relation, m *model) (bool, bool) {
			return r.Add(rows[1]), m.add(rows[1])
		}, true},
		{"Add new", func(r *Relation, m *model) (bool, bool) {
			return r.Add(mkTuple(7, 7)), m.add(mkTuple(7, 7))
		}, true},
		{"Equal", func(r *Relation, m *model) (bool, bool) {
			o := FromTuples("S", 2, rows)
			return o.Equal(r) && r.Equal(o) && o.idx == nil, true
		}, false},
		{"Equal differing", func(r *Relation, m *model) (bool, bool) {
			o := FromTuples("S", 2, []Tuple{rows[0], rows[1], rows[2], mkTuple(9, 0)})
			return o.Equal(r) || r.Equal(o) || o.idx != nil, false
		}, false},
	}
	for _, src := range sources {
		for _, o := range ops {
			r, m := src.build(), newModel(2)
			for _, tp := range rows {
				m.add(tp)
			}
			if r.idx != nil {
				t.Fatalf("%s: holds an index of %d slots", src.name, len(r.idx))
			}
			if c := r.Clone(); c.idx != nil {
				t.Fatalf("%s: its clone holds an index", src.name)
			}
			if err := agree(r, m); err != nil {
				t.Fatalf("%s: %v", src.name, err)
			}
			if got, want := o.op(r, m); got != want {
				t.Errorf("%s, then %s: got %v, want %v", src.name, o.name, got, want)
			}
			if kept := r.idx != nil; kept != o.keeps {
				t.Errorf("%s, then %s: holds an index %v, want %v", src.name, o.name, kept, o.keeps)
			}
			if err := agree(r, m); err != nil {
				t.Errorf("%s, then %s: %v", src.name, o.name, err)
			}
		}
	}
}

// TestPublishedRelationConcurrentReaders holds the read side of the
// relation contract: eight goroutines compare one published relation
// through Equal and scan its Tuple views while a ninth keeps putting it
// into a second database. None of them writes the relation. Run it
// under -race.
func TestPublishedRelationConcurrentReaders(t *testing.T) {
	ts := seqTuples(2000, 2)
	r, twin := FromTuples("R", 2, ts), FromTuples("T", 2, ts)
	NewDatabase().Put(r)
	other := NewDatabase()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := g; i < len(ts); i += 8 {
				if !r.Tuple(i).Equal(ts[i]) {
					t.Errorf("reader %d: tuple %d reads %v, want %v", g, i, r.Tuple(i), ts[i])
					return
				}
			}
			if !twin.Equal(r) || !r.Equal(twin) {
				t.Errorf("reader %d: Equal reports a difference", g)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 50; i++ {
			other.Put(r)
		}
	}()
	close(start)
	wg.Wait()
	if r.idx != nil {
		t.Error("readers left the published relation an index")
	}
	if err := agree(r, modelOf(twin)); err != nil {
		t.Error(err)
	}
}
