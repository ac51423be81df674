package relation

import (
	"encoding/binary"
	"strings"
)

// Tuple is an ordered sequence of data values: the ā in a fact R(ā).
//
// A Tuple obtained from a Relation (Tuple, Tuples, Each, Sorted) or
// handed to a mapper is a read-only view into the relation's slab: it
// is valid for the relation's lifetime and must be copied (Clone)
// before being modified. A Tuple passed to Relation.Add is copied, so
// it may be scratch.
type Tuple []Value

// Equal reports whether t and u have the same length and values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically, shorter tuples first on ties.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if t[i] != u[i] {
			if t[i] < u[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// Clone returns an independent copy of t.
func (t Tuple) Clone() Tuple {
	u := make(Tuple, len(t))
	copy(u, t)
	return u
}

// AppendKey appends v's key encoding (a signed varint) to dst and
// returns the extended slice.
func (v Value) AppendKey(dst []byte) []byte {
	return binary.AppendVarint(dst, int64(v))
}

// AppendKey appends t's Key encoding to dst and returns the extended
// slice: the append-style form of Key for callers that build shuffle
// keys per tuple into a reused scratch buffer (see sgf.Projector's
// AppendKey for the mapper fast path that also skips materializing the
// projected tuple).
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = v.AppendKey(dst)
	}
	return dst
}

// Key returns a compact byte-string key identifying t, suitable for use as
// a map key or MapReduce shuffle key. Distinct tuples of the same arity
// produce distinct keys.
func (t Tuple) Key() string {
	var buf [32]byte
	return string(t.AppendKey(buf[:0]))
}

// TupleFromKey decodes a key produced by Tuple.Key. It returns nil if the
// key is malformed.
func TupleFromKey(key string) Tuple { return tupleFromKey(key) }

// TupleFromKeyBytes is TupleFromKey over a byte-slice key — the form the
// MR engine hands reducers — without a string conversion. The key is
// only read during the call.
func TupleFromKeyBytes(key []byte) Tuple { return tupleFromKey(key) }

// tupleFromKey decodes a varint-sequence key from either representation
// without copying it.
func tupleFromKey[T ~string | ~[]byte](key T) Tuple {
	var t Tuple
	for i := 0; i < len(key); {
		v, n := varintAt(key, i)
		if n <= 0 {
			return nil
		}
		t = append(t, Value(v))
		i += n
	}
	return t
}

// varintAt decodes a signed varint starting at offset off of s, like
// binary.Varint but over a string or byte slice without copying. It
// returns the value and the number of bytes read (0 for truncated
// input, negative for overflow).
func varintAt[T ~string | ~[]byte](s T, off int) (int64, int) {
	var ux uint64
	var shift uint
	for i := 0; off+i < len(s); i++ {
		b := s[off+i]
		if i == binary.MaxVarintLen64 {
			return 0, -(i + 1) // overflow
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, -(i + 1) // overflow
			}
			ux |= uint64(b) << shift
			x := int64(ux >> 1)
			if ux&1 != 0 {
				x = ^x
			}
			return x, i + 1
		}
		ux |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, 0 // truncated
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.Text())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Project returns the tuple consisting of t's values at the given
// positions, in order. It panics on out-of-range positions.
func (t Tuple) Project(positions []int) Tuple {
	out := make(Tuple, len(positions))
	for i, p := range positions {
		out[i] = t[p]
	}
	return out
}
