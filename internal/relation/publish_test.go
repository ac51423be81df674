package relation

import (
	"sync"
	"testing"
)

// TestPublishedRelationHoldsNoIndex pins the storage rule of
// publication: a relation put into a Database, and a Merge result, hold
// no index, and a Clone of either holds none either. The first op that
// needs one rebuilds it, answers as the model does (re-adding a present
// tuple returns false), and keeps the insertion order.
func TestPublishedRelationHoldsNoIndex(t *testing.T) {
	rows := []Tuple{mkTuple(3, 1), mkTuple(1, 2), mkTuple(2, 2), mkTuple(0, 9)}
	sources := []struct {
		name  string
		build func() *Relation
	}{
		{"put", func() *Relation {
			r := FromTuples("R", 2, rows)
			NewDatabase().Put(r)
			return r
		}},
		{"merge", func() *Relation {
			return Merge("R", 2, []*Rows{rowsOf(2, rows[:3]), rowsOf(2, rows[1:])})
		}},
		{"clone of put", func() *Relation {
			r := FromTuples("R", 2, rows)
			NewDatabase().Put(r)
			return r.Clone()
		}},
	}
	ops := []struct {
		name string
		op   func(r *Relation, m *model) (got, want bool)
	}{
		{"Contains present", func(r *Relation, m *model) (bool, bool) {
			return r.Contains(rows[2]), true
		}},
		{"Contains absent", func(r *Relation, m *model) (bool, bool) {
			return r.Contains(mkTuple(2, 3)), false
		}},
		{"Add present", func(r *Relation, m *model) (bool, bool) {
			return r.Add(rows[1]), m.add(rows[1])
		}},
		{"Add new", func(r *Relation, m *model) (bool, bool) {
			return r.Add(mkTuple(7, 7)), m.add(mkTuple(7, 7))
		}},
		{"AddAll", func(r *Relation, m *model) (bool, bool) {
			ts := []Tuple{rows[0], mkTuple(8, 8), rows[3]}
			want := 0
			for _, tp := range ts {
				if m.add(tp) {
					want++
				}
			}
			return r.AddAll(ts) == want, true
		}},
		{"Grow", func(r *Relation, m *model) (bool, bool) {
			r.Grow(100)
			return true, true
		}},
		{"Equal", func(r *Relation, m *model) (bool, bool) {
			return FromTuples("S", 2, rows).Equal(r), true
		}},
	}
	for _, src := range sources {
		for _, o := range ops {
			r, m := src.build(), newModel(2)
			for _, tp := range rows {
				m.add(tp)
			}
			if idx := r.loadIndex(); idx != nil {
				t.Fatalf("%s: holds an index of %d slots", src.name, len(idx))
			}
			if c := r.Clone(); c.loadIndex() != nil {
				t.Fatalf("%s: its clone holds an index", src.name)
			}
			if err := agree(r, m); err != nil {
				t.Fatalf("%s: %v", src.name, err)
			}
			if got, want := o.op(r, m); got != want {
				t.Errorf("%s, then %s: got %v, want %v", src.name, o.name, got, want)
			}
			if r.loadIndex() == nil {
				t.Errorf("%s, then %s: no index rebuilt", src.name, o.name)
			}
			if err := agree(r, m); err != nil {
				t.Errorf("%s, then %s: %v", src.name, o.name, err)
			}
		}
	}
}

// TestPublishedRelationConcurrentReaders races the lazy index rebuild:
// eight goroutines probe one freshly published relation through
// Contains and Equal while a ninth keeps putting it into a second
// database, which drops the index each time. Run it under -race.
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
				if !r.Contains(ts[i]) || r.Contains(mkTuple(-1, int64(i))) {
					t.Errorf("reader %d: Contains wrong at tuple %d", g, i)
					return
				}
			}
			if !twin.Equal(r) {
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
	if err := agree(r, modelOf(twin)); err != nil {
		t.Error(err)
	}
}
