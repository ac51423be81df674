package relation

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// model is the reference the flat storage is held against: the layout
// Relation had before it (a tuple object per row behind a map keyed by
// the tuple's key string), kept as the oracle.
type model struct {
	arity  int
	tuples []Tuple
	index  map[string]int
}

func newModel(arity int) *model { return &model{arity: arity, index: map[string]int{}} }

func (m *model) add(t Tuple) bool {
	k := t.Key()
	if _, dup := m.index[k]; dup {
		return false
	}
	m.index[k] = len(m.tuples)
	m.tuples = append(m.tuples, t.Clone())
	return true
}

func (m *model) contains(t Tuple) bool {
	_, ok := m.index[t.Key()]
	return ok && len(t) == m.arity
}

func (m *model) clone() *model {
	c := newModel(m.arity)
	for _, t := range m.tuples {
		c.add(t)
	}
	return c
}

func (m *model) equal(o *model) bool {
	if m.arity != o.arity || len(m.tuples) != len(o.tuples) {
		return false
	}
	for _, t := range m.tuples {
		if !o.contains(t) {
			return false
		}
	}
	return true
}

// agree checks size, insertion order and membership, probing r's own
// index, if it has one, and a Rename view's, which shares r's slab only
// and builds its own, so r keeps the index, or the absence of one, that
// it had. Each index must keep its invariants: power-of-two length,
// load ≤ 3/4, every row indexed once, at its row id.
func agree(r *Relation, m *model) error {
	if r.Arity() != m.arity || r.Size() != len(m.tuples) {
		return fmt.Errorf("%s vs model of arity %d with %d tuples", r, m.arity, len(m.tuples))
	}
	view := r.Rename(r.Name())
	for i, want := range m.tuples {
		if got := r.Tuple(i); !got.Equal(want) {
			return fmt.Errorf("tuple %d: %v, model %v", i, got, want)
		}
		if !view.Contains(want) {
			return fmt.Errorf("tuple %d %v is stored but not found", i, want)
		}
	}
	for _, idx := range [][]int32{r.idx, view.idx} {
		if idx == nil {
			continue
		}
		if n := len(idx); n&(n-1) != 0 || r.Size()*4 > n*3 {
			return fmt.Errorf("index of %d slots for %d rows", n, r.Size())
		}
		used := 0
		for _, id := range idx {
			if id != 0 {
				used++
			}
		}
		if used != r.Size() {
			return fmt.Errorf("%d index entries for %d rows", used, r.Size())
		}
		for i, want := range m.tuples {
			if id := idx[r.find(idx, want)]; id != int32(i+1) {
				return fmt.Errorf("tuple %d %v indexed as row %d", i, want, id-1)
			}
		}
	}
	return nil
}

// FuzzRelationOps runs a random op sequence — Add, FromTuples, Clone,
// Rename, append-then-Merge of 0–5 buffers (nil and empty ones
// included; duplicates within and across them; whole or cut into
// consecutive pieces), Contains, Equal, and publication by a Put into a
// Database, which drops the index the later ops rebuild — against the
// model, and requires identical return values, size and insertion order
// after every op, the storage bound of Merge and of FromTuples, and no
// index after a Put.
func FuzzRelationOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 1, 2, 1, 3, 9, 9, 9, 9, 9, 9, 5, 0, 1, 2, 3})
	f.Add([]byte{1, 2, 200, 4, 4, 1, 0, 5, 3, 0, 1, 2, 6, 0, 1, 7, 0, 250, 251})
	f.Add([]byte{2, 1, 6, 3, 255, 254, 253, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 5, 5, 1, 0, 0, 3, 1})
	f.Add([]byte(strings.Repeat("\x00\x01\x07\x03\x05\x02", 40)))
	// One whole buffer of duplicates merged in place, then added to.
	f.Add([]byte{0, 5, 0, 1, 1, 0, 5, 3, 3, 3, 4, 4, 1, 0, 1, 1, 3})
	// Twelve tuples, two of them repeats, built by FromTuples, published,
	// then added to: a repeat and a new tuple.
	f.Add([]byte{0, 2, 0, 0, 12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 8, 0, 0, 0, 0, 0, 3, 0, 0, 0, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		arity := next()%3 + 1
		// Values from a small domain, so that duplicates are common;
		// the upper part of a byte maps to negative (string) handles.
		tuple := func(n int) Tuple {
			tp := make(Tuple, n)
			for i := range tp {
				if b := next(); b < 200 {
					tp[i] = Value(b % 12)
				} else {
					tp[i] = Value(b - 256)
				}
			}
			return tp
		}
		const slots = 4
		var rels [slots]*Relation
		var mods [slots]*model
		for i := range rels {
			rels[i], mods[i] = New("R", arity), newModel(arity)
		}
		for step := 0; len(data) > 0; step++ {
			op, a, b := next()%9, next()%slots, next()%slots
			switch op {
			case 0, 1:
				tp := tuple(arity)
				if got, want := rels[a].Add(tp), mods[a].add(tp); got != want {
					t.Fatalf("step %d: Add(%v) = %v, model %v", step, tp, got, want)
				}
			case 2:
				ts := make([]Tuple, next()%20)
				want := newModel(arity)
				for i := range ts {
					ts[i] = tuple(arity)
					want.add(ts[i])
				}
				built := FromTuples("F", arity, ts)
				if built.Name() != "F" {
					t.Fatalf("step %d: FromTuples named its result %q", step, built.Name())
				}
				if err := tight(built); err != nil {
					t.Fatalf("step %d: FromTuples: %v", step, err)
				}
				rels[b], mods[b] = built, want
			case 3:
				rels[b], mods[b] = rels[a].Clone(), mods[a].clone()
			case 4:
				rn := rels[a].Rename("S")
				if rn.Name() != "S" || rels[a].Name() == "S" {
					t.Fatalf("step %d: Rename names %q and %q", step, rn.Name(), rels[a].Name())
				}
				if err := agree(rn, mods[a]); err != nil {
					t.Fatalf("step %d: Rename: %v", step, err)
				}
			case 5:
				// Append-then-Merge: 0–5 buffers, some seeded with a slot's
				// tuples, all with random ones appended (duplicates within
				// and across buffers are common), merged whole or cut
				// into consecutive pieces at data-driven points.
				srcs := make([]*Rows, next()%6)
				for i := range srcs {
					switch k := next() % (slots + 2); k {
					case slots: // nil
					case slots + 1:
						srcs[i] = NewRows(arity + 1) // an empty source's arity is not looked at
					default:
						srcs[i] = NewRows(arity)
						for _, tp := range mods[k].tuples {
							srcs[i].Append(tp)
						}
						for j := next() % 16; j > 0; j-- {
							srcs[i].Append(tuple(arity))
						}
					}
				}
				if next()%2 == 0 {
					srcs = cutRows(func(n int) int { return next() % n }, srcs)
				}
				want := newModel(arity)
				for _, buf := range srcs {
					for i := 0; buf != nil && i < buf.Size(); i++ {
						want.add(buf.Tuple(i))
					}
				}
				merged := Merge("M", arity, srcs)
				if merged.Name() != "M" {
					t.Fatalf("step %d: Merge named its result %q", step, merged.Name())
				}
				if err := tight(merged); err != nil {
					t.Fatalf("step %d: Merge: %v", step, err)
				}
				rels[b], mods[b] = merged, want
			case 6:
				tp := tuple(arity + next()%3 - 1) // sometimes one value short or long
				if got, want := rels[a].Contains(tp), mods[a].contains(tp); got != want {
					t.Fatalf("step %d: Contains(%v) = %v, model %v", step, tp, got, want)
				}
			case 7:
				if got, want := rels[a].Equal(rels[b]), mods[a].equal(mods[b]); got != want {
					t.Fatalf("step %d: Equal = %v, model %v", step, got, want)
				}
			case 8:
				NewDatabase().Put(rels[a])
				if rels[a].idx != nil {
					t.Fatalf("step %d: a published relation holds an index", step)
				}
			}
			for _, i := range []int{a, b} {
				if err := agree(rels[i], mods[i]); err != nil {
					t.Fatalf("step %d (op %d): slot %d: %v", step, op, i, err)
				}
			}
		}
	})
}

func TestContainsEdges(t *testing.T) {
	empty := New("R", 2)
	if empty.Contains(mkTuple(1, 2)) || empty.Contains(nil) {
		t.Error("empty relation contains something")
	}
	r := FromTuples("R", 2, []Tuple{mkTuple(1, 2), mkTuple(3, 4)})
	for _, tp := range []Tuple{nil, mkTuple(1), mkTuple(1, 2, 3), mkTuple(1, 2, 3, 4, 5, 6, 7, 8, 9)} {
		if r.Contains(tp) {
			t.Errorf("Contains(%v) on an arity-2 relation", tp)
		}
	}
	if !r.Contains(mkTuple(3, 4)) || r.Contains(mkTuple(4, 3)) {
		t.Error("Contains wrong on same-arity tuples")
	}
}

// TestTupleViews pins the view rule: a Tuple handed out by a relation
// is capacity-capped and stays valid across growth, and the relation
// aliases nothing it was built from.
func TestTupleViews(t *testing.T) {
	r := FromTuples("R", 2, []Tuple{mkTuple(1, 2), mkTuple(3, 4)})
	if grown := append(r.Tuple(0), Int(99)); !r.Tuple(1).Equal(mkTuple(3, 4)) || len(grown) != 3 {
		t.Errorf("append to a view clobbered the next row: %v", r.Tuple(1))
	}
	for _, v := range r.Tuples() {
		if cap(v) != 2 {
			t.Errorf("view %v has capacity %d, want 2", v, cap(v))
		}
	}

	early := r.Tuple(1)
	for i := int64(0); i < 100_000; i++ {
		r.Add(Tuple{Value(i), Value(-i - 1)})
	}
	if !early.Equal(mkTuple(3, 4)) || !r.Tuple(1).Equal(early) || r.Size() != 100_002 {
		t.Errorf("view taken before growth reads %v afterwards", early)
	}

	src := []Tuple{mkTuple(1, 2), mkTuple(3, 4)}
	a := FromTuples("A", 2, src)
	src[0][0], src[1] = Int(7), mkTuple(8, 9)
	if !a.Tuple(0).Equal(mkTuple(1, 2)) || !a.Tuple(1).Equal(mkTuple(3, 4)) || !a.Contains(mkTuple(1, 2)) {
		t.Errorf("relation changed with the slice it was built from: %s", a.Dump())
	}
	scratch := mkTuple(5, 6)
	a.Add(scratch)
	scratch[0] = Int(0)
	if !a.Contains(mkTuple(5, 6)) || a.Contains(mkTuple(0, 6)) {
		t.Error("Add kept a reference to its argument")
	}
}

// TestAddPastRowLimitPanics: row ids are int32, so a full relation
// refuses the next new tuple loudly — naming itself, as the arity
// panic does — and never wraps; a present tuple is still a duplicate.
func TestAddPastRowLimitPanics(t *testing.T) {
	defer func(old int) { maxRows = old }(maxRows)
	maxRows = 100
	r := New("Big", 1)
	for i := int64(0); i < 100; i++ {
		r.Add(Tuple{Value(i)})
	}
	if r.Add(Tuple{Value(7)}) {
		t.Error("duplicate Add on a full relation returned true")
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "Big") || !strings.Contains(msg, "100") {
			t.Errorf("panic %q does not name the relation and its size", msg)
		}
		if r.Size() != 100 || r.Contains(Tuple{Value(100)}) {
			t.Errorf("failed Add changed the relation: %s", r)
		}
	}()
	r.Add(Tuple{Value(100)})
	t.Error("Add past the row limit did not panic")
}

// meanProbes is the mean number of slots a successful lookup examines.
func meanProbes(r *Relation) float64 {
	idx := r.idx
	mask, total := len(idx)-1, 0
	for slot, id := range idx {
		if id != 0 {
			home := hashRow(r.Tuple(int(id)-1)) & mask
			total += (slot-home)&mask + 1
		}
	}
	return float64(total) / float64(r.Size())
}

// TestIndexProbeLength holds the hash against inputs that defeat a weak
// one: dense ranges, multiples of the table size (equal low bits),
// negative string handles, and wider rows that vary in one column only.
// Uniform hashing at load 3/4 gives 2.5 probes per hit; the bound is 3.
func TestIndexProbeLength(t *testing.T) {
	const n = 24_500
	const slots = 1 << 15 // slotsFor(n): load 0.748
	gens := []struct {
		name string
		gen  func(i int64) Value
	}{
		{"dense", func(i int64) Value { return Value(i) }},
		{"table-multiple", func(i int64) Value { return Value(i * slots) }},
		{"high-bits", func(i int64) Value { return Value(i << 40) }},
		{"negative", func(i int64) Value { return Value(-i - 1) }},
	}
	for _, g := range gens {
		name, gen := g.name, g.gen
		for arity := 1; arity <= 8; arity++ {
			for _, vary := range []int{0, arity - 1, -1} { // first column, last column, all
				r := New(name, arity)
				tp := make(Tuple, arity)
				for i := int64(0); i < n; i++ {
					for c := range tp {
						if vary < 0 || c == vary {
							tp[c] = gen(i)
						}
					}
					r.Add(tp)
				}
				if r.Size() != n || len(r.idx) != slots {
					t.Fatalf("%s/%d: %d rows in %d slots", name, arity, r.Size(), len(r.idx))
				}
				if got := meanProbes(r); got > 3 {
					t.Errorf("%s, arity %d, varying column %d: %.2f probes per hit, want ≤ 3", name, arity, vary, got)
				}
			}
		}
	}
}

func seqTuples(n, arity int) []Tuple {
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = make(Tuple, arity)
		for c := range ts[i] {
			ts[i][c] = Value(i + c)
		}
	}
	return ts
}

// TestStorageAllocations pins the layout by what it allocates: nothing
// per tuple. A built relation is its header, one slab and one index
// (FromTuples': its Merge's dedup index, which it does not keep).
func TestStorageAllocations(t *testing.T) {
	r := FromTuples("R", 2, seqTuples(1000, 2))
	present := r.Tuple(500).Clone()
	if allocs := testing.AllocsPerRun(1000, func() { r.Add(present) }); allocs != 0 {
		t.Errorf("re-Add of a present tuple allocates %v, want 0", allocs)
	}
	for _, n := range []int{10, 1000, 100_000} {
		ts := seqTuples(n, 2)
		if allocs := testing.AllocsPerRun(5, func() { FromTuples("R", 2, ts) }); allocs > 3 {
			t.Errorf("FromTuples of %d tuples allocates %v, want ≤ 3", n, allocs)
		}
	}
	// A merge of several buffers allocates the relation's header, slab
	// and the dedup's index, which it does not keep, and a tight slab
	// when it trims (here k ≥ 5: the heavy overlap keeps under half of
	// the rows).
	for _, k := range []int{2, 5, 40} {
		srcs := make([]*Rows, k)
		for i := range srcs {
			srcs[i] = rowsOf(2, seqTuples(300+100*i, 2)) // heavy overlap
		}
		want := 3.0
		if k >= 5 {
			want = 4
		}
		if allocs := testing.AllocsPerRun(5, func() { Merge("Z", 2, srcs) }); allocs > want {
			t.Errorf("Merge of %d sources allocates %v, want ≤ %v", k, allocs, want)
		}
	}
	// A lone whole buffer becomes the slab: header and the dedup's index
	// only.
	lone := rowsOf(2, seqTuples(1000, 2))
	if allocs := testing.AllocsPerRun(5, func() { Merge("Z", 2, []*Rows{lone}) }); allocs > 2 {
		t.Errorf("Merge of one buffer allocates %v, want ≤ 2", allocs)
	}
}

// TestLiveHeapPerValue measures what a relation keeps alive, over a
// unary and a 4-ary relation together: built through Add, the slab's 8
// bytes per value, with append's slack, plus the index's 4 bytes per
// slot, under 16 bytes per stored value; published, the slab alone,
// under 9.
func TestLiveHeapPerValue(t *testing.T) {
	unary, quad := seqTuples(200_000, 1), seqTuples(50_000, 4)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a, b := New("A", 1), New("B", 4)
	for _, tp := range unary {
		a.Add(tp)
	}
	for _, tp := range quad {
		b.Add(tp)
	}
	values := a.Size()*a.Arity() + b.Size()*b.Arity()
	perValue := func() float64 {
		runtime.GC()
		runtime.ReadMemStats(&after)
		return float64(after.HeapAlloc-before.HeapAlloc) / float64(values)
	}
	built := perValue()
	db := NewDatabase()
	db.Put(a)
	db.Put(b)
	published := perValue()
	runtime.KeepAlive(db)
	runtime.KeepAlive(unary)
	runtime.KeepAlive(quad)
	if values != 400_000 || built > 16 || published > 9 {
		t.Errorf("%.1f live bytes per stored value built and %.1f published, over %d values; want ≤ 16 and ≤ 9", built, published, values)
	}
}

var benchSink *Relation

func BenchmarkRelationBuild(b *testing.B) {
	for _, arity := range []int{1, 4} {
		ts := seqTuples(100_000, arity)
		b.Run(fmt.Sprintf("arity%d", arity), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = FromTuples("R", arity, ts)
			}
		})
	}
}

func BenchmarkRelationMerge(b *testing.B) {
	for _, overlap := range []int{0, 50} { // percent of each source shared with the one before
		srcs := make([]*Rows, 8)
		for i := range srcs {
			r := NewRows(2)
			base := int64(i * 20_000 * (100 - overlap) / 100)
			for j := int64(0); j < 20_000; j++ {
				r.Append(Tuple{Value(base + j), Value(j % 7)})
			}
			srcs[i] = r
		}
		b.Run(fmt.Sprintf("overlap%d", overlap), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = Merge("Z", 2, srcs)
			}
		})
	}
}

func BenchmarkRelationContains(b *testing.B) {
	ts := seqTuples(100_000, 2)
	r := FromTuples("R", 2, ts)
	miss := Tuple{Value(-1), Value(-1)}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if r.Contains(ts[i%len(ts)]) {
			hits++
		}
		if r.Contains(miss) {
			hits--
		}
	}
	if hits != b.N {
		b.Fatalf("%d hits in %d lookups", hits, b.N)
	}
}
