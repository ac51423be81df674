// Package relation provides the relational substrate used throughout the
// repository: data values, tuples, set-semantics relations, and databases.
//
// A Relation stores its tuples flat — one row-major slab of values and
// one int32 open-addressing index of row ids, both pointer-free, and no
// object per tuple — so what the garbage collector traces does not grow
// with the data. Tuples read from a relation are views into that slab
// (see Tuple).
//
// Values are compact int64 handles. Non-negative handles denote integer
// data values directly; negative handles denote interned strings (see
// String and ValueText). This keeps tuples flat and hashable while still
// supporting the string constants that appear in SGF queries (e.g. the
// rating "bad" in the paper's Example 2).
package relation

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"sync"
)

// Value is a single data value: a member of the paper's infinite domain D.
// Non-negative values are integers; negative values are handles of interned
// strings.
type Value int64

// internTable maps strings to negative Value handles, process-wide.
// Interning is global (rather than per-database) so that values remain
// comparable across databases, relations, and parsed queries.
//
// The table only grows, so what an entry costs is what a process that
// keeps loading new strings keeps. Each text is held once, in byValue;
// idx is an open-addressing, linear-probing hash table over it, like a
// Relation's index, storing text index + 1 (0 = empty; length 0 or a
// power of two, load ≤ 3/4): 5–11 bytes an entry, where a
// map[string]Value spends 29–57.
type internTable struct {
	mu      sync.RWMutex
	idx     []int32
	byValue []string // index i holds text for Value(-(i + 1))
}

var (
	interned   = &internTable{}
	internSeed = maphash.MakeSeed()
)

// String interns s and returns its Value handle. Repeated calls with the
// same string return the same handle.
func String(s string) Value {
	t := interned
	t.mu.RLock()
	v, ok := t.lookup(s)
	t.mu.RUnlock()
	if ok {
		return v
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.lookup(s); ok {
		return v
	}
	n := len(t.byValue)
	if n >= math.MaxInt32-1 {
		panic(fmt.Sprintf("relation.String: the intern table is full at %d strings", n))
	}
	if (n+1)*4 > len(t.idx)*3 {
		t.idx = make([]int32, max(8, 2*len(t.idx)))
		for i, text := range t.byValue {
			t.idx[t.find(text)] = int32(i + 1)
		}
	}
	t.idx[t.find(s)] = int32(n + 1)
	t.byValue = append(t.byValue, s)
	return Value(-(n + 1))
}

// lookup returns s's handle, if s is interned.
func (t *internTable) lookup(s string) (Value, bool) {
	if len(t.idx) == 0 {
		return 0, false
	}
	id := t.idx[t.find(s)]
	return Value(-id), id != 0
}

// find probes the index, which must not be empty, for s: it returns the
// slot that holds s's id, or else the empty slot ending s's probe
// sequence, where that id belongs.
func (t *internTable) find(s string) int {
	mask := len(t.idx) - 1
	i := int(maphash.String(internSeed, s)) & mask
	for t.idx[i] != 0 && t.byValue[t.idx[i]-1] != s {
		i = (i + 1) & mask
	}
	return i
}

// Int returns the Value for integer i. It panics if i is negative, since
// negative handles are reserved for interned strings; use String for
// arbitrary text or IntSigned for signed integer data.
func Int(i int64) Value {
	if i < 0 {
		panic(fmt.Sprintf("relation.Int: negative integer %d (reserved for interned strings); use relation.IntSigned", i))
	}
	return Value(i)
}

// IntSigned maps an arbitrary signed integer onto a Value by interning the
// decimal text of negative numbers. Non-negative numbers map directly.
func IntSigned(i int64) Value {
	if i >= 0 {
		return Value(i)
	}
	return String(strconv.FormatInt(i, 10))
}

// IsString reports whether v is an interned-string handle.
func (v Value) IsString() bool { return v < 0 }

// Text returns the human-readable form of v: the decimal representation
// for integers, or the interned string.
func (v Value) Text() string {
	if v >= 0 {
		return strconv.FormatInt(int64(v), 10)
	}
	interned.mu.RLock()
	defer interned.mu.RUnlock()
	idx := int(-v) - 1
	if idx >= len(interned.byValue) {
		return fmt.Sprintf("<bad-handle:%d>", int64(v))
	}
	return interned.byValue[idx]
}

// String implements fmt.Stringer.
func (v Value) String() string { return v.Text() }

// ParseValue parses text into a Value: decimal non-negative integers map
// to integer values; everything else (including negative numbers and
// quoted text) is interned as a string.
func ParseValue(text string) Value {
	if n, err := strconv.ParseInt(text, 10, 64); err == nil && n >= 0 {
		return Value(n)
	}
	return String(text)
}
