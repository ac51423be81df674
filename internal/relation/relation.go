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
// Storage is two pointer-free arrays and nothing per tuple: vals holds
// the rows back to back in insertion order, and idx is an
// open-addressing, linear-probing hash table over the rows' values that
// stores row ids (a hit is confirmed against the slab; there is no key
// string and no map). The slab is append-only and growing it copies, so
// a Tuple view handed out once stays valid for good.
type Relation struct {
	name  string
	arity int
	vals  []Value // row i is vals[i*arity : (i+1)*arity]
	idx   []int32 // row id + 1, 0 = empty; length 0 or a power of two, load ≤ 3/4
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
// removed). The values are copied: the relation does not alias tuples.
func FromTuples(name string, arity int, tuples []Tuple) *Relation {
	r := New(name, arity)
	r.AddAll(tuples)
	return r
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

// reindex rebuilds the index at the given length from the slab.
func (r *Relation) reindex(slots int) {
	r.idx = make([]int32, slots)
	for id, n := 0, r.Size(); id < n; id++ {
		r.idx[r.find(r.Tuple(id))] = int32(id + 1)
	}
}

// find probes the index, which must not be empty, for t, which has r's
// arity: it returns the slot that holds t's row id, or else the empty
// slot ending t's probe sequence, where that id belongs.
func (r *Relation) find(t Tuple) int {
	mask := len(r.idx) - 1
	i := hashRow(t) & mask
	for r.idx[i] != 0 && !r.Tuple(int(r.idx[i])-1).Equal(t) {
		i = (i + 1) & mask
	}
	return i
}

// Add inserts a copy of t's values, returning true if t was not already
// present. It panics if the arity does not match or the relation is
// full (2³¹−2 tuples). Re-adding a present tuple — the common case in
// reducer outputs with heavy overlap — allocates nothing, and an insert
// allocates only when the slab or the index grows.
func (r *Relation) Add(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation %s: adding tuple of arity %d to relation of arity %d", r.name, len(t), r.arity))
	}
	if len(r.idx) == 0 {
		r.idx = make([]int32, 8)
	}
	slot := r.find(t)
	if r.idx[slot] != 0 {
		return false
	}
	n := r.Size()
	if n >= maxRows {
		panic(fmt.Sprintf("relation %s: full at %d tuples (row ids are int32)", r.name, n))
	}
	r.idx[slot] = int32(n + 1)
	r.vals = append(r.vals, t...)
	if (n+1)*4 > len(r.idx)*3 { // past load 3/4
		r.reindex(2 * len(r.idx))
	}
	return true
}

// Contains reports whether t is present; a tuple of another arity is
// not. It allocates nothing.
func (r *Relation) Contains(t Tuple) bool {
	return len(t) == r.arity && len(r.idx) > 0 && r.idx[r.find(t)] != 0
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

// Clone returns a deep copy of r: one copy of the slab and one of the
// index.
func (r *Relation) Clone() *Relation {
	return &Relation{name: r.name, arity: r.arity, vals: slices.Clone(r.vals), idx: slices.Clone(r.idx)}
}

// Grow pre-sizes r's storage for n additional tuples, so a bulk load
// of n tuples grows neither the slab nor the index on the way. It never
// changes the relation's contents; n ≤ 0 does nothing.
func (r *Relation) Grow(n int) {
	rows := min(r.Size()+n, maxRows)
	if need := rows * r.arity; cap(r.vals) < need {
		r.vals = append(make([]Value, 0, need), r.vals...)
	}
	slots := len(r.idx)
	for slots*3 < rows*4 { // the least power of two, 8 or more, at load ≤ 3/4
		slots = max(8, 2*slots)
	}
	if slots > len(r.idx) {
		r.reindex(slots)
	}
}

// AddAll inserts every tuple of ts in order (set semantics, like Add)
// and returns the number of tuples actually added. Storage is pre-sized
// once via Grow. It panics if any tuple's arity does not match.
func (r *Relation) AddAll(ts []Tuple) int {
	r.Grow(len(ts))
	added := 0
	for _, t := range ts {
		if r.Add(t) {
			added++
		}
	}
	return added
}

// Rename returns a shallow view of r under a different name, sharing
// its storage; neither may be added to afterwards.
func (r *Relation) Rename(name string) *Relation {
	return &Relation{name: name, arity: r.arity, vals: r.vals, idx: r.idx}
}

// Equal reports whether r and o contain exactly the same tuple set
// (names may differ).
func (r *Relation) Equal(o *Relation) bool {
	if r.arity != o.arity || len(r.vals) != len(o.vals) {
		return false
	}
	for i, n := 0, r.Size(); i < n; i++ {
		if !o.Contains(r.Tuple(i)) {
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
// database while queries read it). Individual Relations are not locked;
// callers must not mutate a relation after publishing it with Put.
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
// the same name.
func (db *Database) Put(rel *Relation) {
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
