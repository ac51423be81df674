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
type internTable struct {
	mu      sync.RWMutex
	byText  map[string]Value
	byValue []string // index i holds text for Value(-(i + 1))
}

var interned = &internTable{byText: make(map[string]Value)}

// String interns s and returns its Value handle. Repeated calls with the
// same string return the same handle.
func String(s string) Value {
	interned.mu.RLock()
	v, ok := interned.byText[s]
	interned.mu.RUnlock()
	if ok {
		return v
	}
	interned.mu.Lock()
	defer interned.mu.Unlock()
	if v, ok := interned.byText[s]; ok {
		return v
	}
	v = Value(-(len(interned.byValue) + 1))
	interned.byText[s] = v
	interned.byValue = append(interned.byValue, s)
	return v
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
