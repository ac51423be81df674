package relation

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
)

// BytesPerField is the assumed serialized size of one tuple field, chosen
// to match the paper's data ratios: a 4-ary guard relation of 100M tuples
// occupies 4 GB (40 bytes/tuple) and a unary conditional relation of 100M
// tuples occupies 1 GB (10 bytes/tuple).
const BytesPerField = 10

// maxRows bounds a relation's size: the index stores row id + 1 in an
// int32. It is a variable only so that the overflow test can lower it.
var maxRows = 1<<31 - 2

// Relation is a named, fixed-arity set of tuples. Relations have set
// semantics: Add ignores duplicates. Iteration order is insertion order,
// which keeps runs deterministic.
//
// Storage is one pointer-free array and nothing per tuple: vals holds
// the rows back to back in insertion order. The slab is append-only and
// growing it copies, so a Tuple view handed out once stays valid for
// good. Beside it, while the relation is built or probed, sits idx: an
// open-addressing, linear-probing hash table over the rows' values that
// stores row ids (a hit is confirmed against the slab; there is no key
// string and no map).
//
// A relation's owner builds it, anyone reads it. The index is a private
// cache of the goroutine that builds the relation: Add and Contains
// build it and keep it, Database.Put drops it, since a published
// relation is only scanned, and the bulk builds, Merge and FromTuples,
// keep none. A published relation is read by many goroutines at once
// through its views (Tuple, Each, Sorted) and Equal, which write
// nothing, never through Add or Contains, which write the index.
type Relation struct {
	name  string
	arity int
	vals  []Value // row i is vals[i*arity : (i+1)*arity]
	// idx is nil when dropped or never built; else its length is a
	// power of two and each slot holds a row id + 1, or 0 when empty,
	// at load ≤ 3/4.
	idx []int32
}

// New returns an empty relation with the given name and arity.
// Arity must be positive.
func New(name string, arity int) *Relation {
	if arity <= 0 {
		panic(fmt.Sprintf("relation.New: non-positive arity %d for %s", arity, name))
	}
	return &Relation{name: name, arity: arity}
}

// FromTuples builds a relation from the given tuples (duplicates
// removed, first occurrences kept in order) through one Merge, so it
// holds no index. The values are copied: the relation does not alias
// tuples. It panics if any tuple's arity does not match.
func FromTuples(name string, arity int, tuples []Tuple) *Relation {
	b := NewRows(arity)
	b.vals = make([]Value, 0, len(tuples)*arity)
	for _, t := range tuples {
		b.Append(t)
	}
	return Merge(name, arity, []*Rows{b})
}

// Name returns the relation symbol.
func (r *Relation) Name() string { return r.name }

// Arity returns the number of fields per tuple.
func (r *Relation) Arity() int { return r.arity }

// Size returns the number of tuples.
func (r *Relation) Size() int { return len(r.vals) / r.arity }

// Bytes returns the modelled serialized size of the relation in bytes
// (Size × arity × BytesPerField). This drives the cost model's N_i values.
func (r *Relation) Bytes() int64 { return int64(len(r.vals)) * BytesPerField }

// TupleBytes returns the modelled serialized size of one tuple of this
// relation's arity.
func (r *Relation) TupleBytes() int64 { return int64(r.arity) * BytesPerField }

// hashRow hashes a row's values for the index: a 64×64→128-bit
// multiply folded per value and once more at the end, without which
// dense ids and rows differing in one column probe measurably longer
// than uniform hashing would (TestIndexProbeLength).
func hashRow(t Tuple) int {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range t {
		hi, lo := bits.Mul64(h^uint64(v), 0xD6E8FEB86659FD93)
		h = hi ^ lo
	}
	hi, lo := bits.Mul64(h, 0x9E3779B97F4A7C15)
	return int(hi ^ lo)
}

// index returns a fresh index of the given length, a power of two,
// over r's rows.
func (r *Relation) index(slots int) []int32 {
	idx := make([]int32, slots)
	for id, n := 0, r.Size(); id < n; id++ {
		idx[r.find(idx, r.Tuple(id))] = int32(id + 1)
	}
	return idx
}

// find probes idx, an index over r's slab that must not be empty, for
// t, which has r's arity: it returns the slot that holds t's row id, or
// else the empty slot ending t's probe sequence, where that id belongs.
func (r *Relation) find(idx []int32, t Tuple) int {
	mask := len(idx) - 1
	i := hashRow(t) & mask
	for idx[i] != 0 && !r.Tuple(int(idx[i])-1).Equal(t) {
		i = (i + 1) & mask
	}
	return i
}

// Add inserts a copy of t's values, returning true if t was not already
// present. It panics if the arity does not match or the relation is
// full (2³¹−2 tuples). Re-adding a present tuple — the common case in
// reducer outputs with heavy overlap — allocates nothing, and an insert
// allocates only when the slab or the index grows, or when the relation
// has no index and Add builds it.
func (r *Relation) Add(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation %s: adding tuple of arity %d to relation of arity %d", r.name, len(t), r.arity))
	}
	n := r.Size()
	if r.idx == nil {
		r.idx = r.index(indexSlots(n + 1))
	}
	slot := r.find(r.idx, t)
	if r.idx[slot] != 0 {
		return false
	}
	if n >= maxRows {
		panic(fmt.Sprintf("relation %s: full at %d tuples (row ids are int32)", r.name, n))
	}
	r.idx[slot] = int32(n + 1)
	r.vals = append(r.vals, t...)
	if (n+1)*4 > len(r.idx)*3 { // past load 3/4
		r.idx = r.index(2 * len(r.idx))
	}
	return true
}

// Contains reports whether t is present; a tuple of another arity is
// not. It allocates nothing, except that on a non-empty relation with
// no index it first builds the index, which it keeps. It is the
// owner's probe: it writes the index, so it must not be called on a
// relation other goroutines read (use Equal there).
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.arity || len(r.vals) == 0 {
		return false
	}
	if r.idx == nil {
		r.idx = r.index(indexSlots(r.Size()))
	}
	return r.idx[r.find(r.idx, t)] != 0
}

// Tuple returns the i-th tuple in insertion order as a read-only view
// into the slab: it stays valid for the relation's lifetime, must be
// copied (Tuple.Clone) before being modified, and is capacity-capped,
// so appending to it copies instead of overwriting the next row.
func (r *Relation) Tuple(i int) Tuple {
	lo, hi := i*r.arity, (i+1)*r.arity
	return r.vals[lo:hi:hi]
}

// Tuples returns the tuples in insertion order as a fresh slice of
// views (see Tuple). It costs a slice header per tuple; loops should
// use Each, or Size and Tuple.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, r.Size())
	for i := range out {
		out[i] = r.Tuple(i)
	}
	return out
}

// Each calls fn for every tuple with its stable id (insertion
// position). The tuples are views, see Tuple.
func (r *Relation) Each(fn func(id int, t Tuple)) {
	for i, n := 0, r.Size(); i < n; i++ {
		fn(i, r.Tuple(i))
	}
}

// Clone returns a deep copy of r: one copy of the slab. The copy has no
// index; the first Add or Contains on it builds one.
func (r *Relation) Clone() *Relation {
	return &Relation{name: r.name, arity: r.arity, vals: slices.Clone(r.vals)}
}

// indexSlots is the index length for rows rows: the least power of two,
// 8 or more, at load ≤ 3/4 (0 for no rows).
func indexSlots(rows int) int {
	slots := 0
	for slots*3 < rows*4 {
		slots = max(8, 2*slots)
	}
	return slots
}

// dedup makes r's slab, rows in any order with duplicates, a set: under
// an index built once, sized for every row, and dropped when it
// returns, it keeps each row's first occurrence, moving it down over
// the rows dropped before it. It panics as Add does if more than
// 2³¹−2 rows are kept.
func (r *Relation) dedup() {
	a, n := r.arity, r.Size()
	idx := make([]int32, indexSlots(n))
	k := 0
	for i := 0; i < n; i++ {
		t := r.vals[i*a : (i+1)*a]
		slot := r.find(idx, t)
		if idx[slot] != 0 {
			continue
		}
		if k >= maxRows {
			panic(fmt.Sprintf("relation %s: full at %d tuples (row ids are int32)", r.name, k))
		}
		if k < i {
			copy(r.vals[k*a:], t)
		}
		idx[slot] = int32(k + 1)
		k++
	}
	r.vals = r.vals[:k*a]
}

// Rename returns a shallow view of r under a different name: it shares
// r's slab, so neither may be added to afterwards, and not r's index.
func (r *Relation) Rename(name string) *Relation {
	return &Relation{name: name, arity: r.arity, vals: r.vals}
}

// Equal reports whether r and o contain exactly the same tuple set
// (names may differ). It probes a private index over o's rows and
// writes neither relation, so it is the comparison that is safe on
// published relations under concurrent readers.
func (r *Relation) Equal(o *Relation) bool {
	if r.arity != o.arity || len(r.vals) != len(o.vals) {
		return false
	}
	idx := o.index(indexSlots(o.Size()))
	for i, n := 0, r.Size(); i < n; i++ {
		if idx[o.find(idx, r.Tuple(i))] == 0 {
			return false
		}
	}
	return true
}

// Sorted returns the tuples in lexicographic order (a fresh slice of
// views, see Tuple).
func (r *Relation) Sorted() []Tuple {
	out := r.Tuples()
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// String renders the relation as "Name/arity{n tuples}".
func (r *Relation) String() string {
	return fmt.Sprintf("%s/%d{%d tuples}", r.name, r.arity, r.Size())
}

// Dump renders the full contents, sorted, for debugging and golden tests.
func (r *Relation) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s/%d:\n", r.name, r.arity)
	for _, t := range r.Sorted() {
		sb.WriteString("  ")
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Database is a named collection of relations: the paper's DB, a finite
// set of facts grouped by relation symbol.
//
// A Database is safe for concurrent use: Put and the read accessors may
// be called from multiple goroutines (the server loads relations into a
// database while queries read it). Individual Relations are not locked:
// a relation's builder publishes it with Put and neither adds to it nor
// probes it with Contains afterwards; anyone then reads it through its
// views and Equal (see Relation). Put drops the relation's hash index,
// which no plan reads, so a published relation holds none, and a Put of
// it into another database writes nothing.
type Database struct {
	mu    sync.RWMutex
	rels  map[string]*Relation
	order []string // deterministic iteration order (insertion order)
	gen   uint64   // bumped by every Put/Drop; see Generation
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{rels: make(map[string]*Relation)}
}

// Put registers rel under its name, replacing any existing relation with
// the same name, and drops rel's index where it has one.
func (db *Database) Put(rel *Relation) {
	if rel.idx != nil {
		rel.idx = nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.rels[rel.Name()]; !exists {
		db.order = append(db.order, rel.Name())
	}
	db.rels[rel.Name()] = rel
	db.gen++
}

// Drop removes the relation with the given name, reporting whether it
// existed. Like Put it bumps the database generation.
func (db *Database) Drop(name string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.rels[name]; !ok {
		return false
	}
	delete(db.rels, name)
	for i, n := range db.order {
		if n == name {
			db.order = append(db.order[:i], db.order[i+1:]...)
			break
		}
	}
	db.gen++
	return true
}

// Generation returns a counter that increases on every mutation of the
// database's relation mapping (Put or Drop). Two reads of the same
// database returning the same generation are guaranteed to have observed
// the same set of relations (individual relations must not be mutated
// after publication, per the concurrency contract above). Plan caches use
// the generation as a cheap schema-and-content fingerprint: any load or
// drop invalidates entries keyed under the previous generation.
func (db *Database) Generation() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.gen
}

// Relation returns the relation with the given name, or nil.
func (db *Database) Relation(name string) *Relation {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.rels[name]
}

// Has reports whether a relation with the given name exists.
func (db *Database) Has(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.rels[name]
	return ok
}

// Names returns relation names in insertion order.
func (db *Database) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// Relations returns all relations in insertion order.
func (db *Database) Relations() []*Relation {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Relation, 0, len(db.order))
	for _, n := range db.order {
		out = append(out, db.rels[n])
	}
	return out
}

// Bytes returns the total modelled size of all relations.
func (db *Database) Bytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var total int64
	for _, r := range db.rels {
		total += r.Bytes()
	}
	return total
}

// Clone returns a deep copy of the database.
func (db *Database) Clone() *Database {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c := NewDatabase()
	for _, n := range db.order {
		c.Put(db.rels[n].Clone())
	}
	return c
}

// String summarizes the database contents.
func (db *Database) String() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var sb strings.Builder
	sb.WriteString("DB{")
	for i, n := range db.order {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(db.rels[n].String())
	}
	sb.WriteString("}")
	return sb.String()
}
