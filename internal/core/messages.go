// Package core implements the paper's primary contribution: the
// multi-semi-join operator MSJ (Algorithm 1) and the EVAL operator for
// Boolean combinations (§4.3), their fused 1-ROUND form (§5.1,
// optimization (4)), the plan space for BSGF and SGF queries, the cost
// estimation that drives plan choice (Eq. 5–10), and the greedy
// optimizers Greedy-BSGF (§4.4) and Greedy-SGF (§4.6) with brute-force
// optimal baselines.
package core

import (
	"encoding/binary"
	"strings"

	"repro/internal/mr"
	"repro/internal/relation"
)

// The three message types core's jobs shuffle. Each has a tag, an encoder
// (Emit: the payload is built in a stack buffer and copied into the map
// task's arena, so emitting allocates nothing), a decoder (over the
// payload bytes a reducer's mr.Group hands out; decoded values are
// copies) and a modelled size — the paper's byte accounting, which the
// encoded length never replaces. Integers travel as signed varints;
// payloads only need in-process fidelity (interned string handles
// round-trip as their int64 values). A payload that does not decode is
// a damaged spill file: the decoders abort the task through mr.Corrupt,
// so the run fails with an error matching mr.ErrSpill.
const (
	TagRequest byte = iota + 1
	TagAssert
	TagTupleVal
)

// Modelled message sizes in bytes. Requests in tuple-id mode carry a
// 4-byte equation tag and an 8-byte guard tuple reference — this is the
// paper's optimization (2): shuffling a reference instead of the tuple.
const (
	assertBytes  = 4
	reqIDBytes   = 12
	tupleTagByte = 2
)

// varint decodes one signed varint off the front of p.
func varint(p []byte, what string) (int64, []byte) {
	v, n := binary.Varint(p)
	if n <= 0 {
		mr.Corrupt(what + " payload")
	}
	return v, p[n:]
}

// decodeValues decodes the n values that make up payload p into
// dst[:0], allocating — once, at the exact arity — only when dst is too
// small: pass a stack array's slice for a tuple that is read and
// dropped — an output fact included, since Output.Add copies — and
// nil for one that is kept. n is checked against the bytes that remain
// (a value takes at least one) before it sizes anything.
func decodeValues(dst relation.Tuple, p []byte, n uint64, what string) relation.Tuple {
	if n > uint64(len(p)) {
		mr.Corrupt(what + " payload")
	}
	if dst = dst[:0]; uint64(cap(dst)) < n {
		dst = make(relation.Tuple, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var v int64
		v, p = varint(p, what)
		dst = append(dst, relation.Value(v))
	}
	if len(p) != 0 {
		mr.Corrupt(what + " payload")
	}
	return dst
}

// Request is the request message of a reconcile job ("Req (κ_i, i); Out
// <ref>" in Algorithm 1): it asks the key's reducer to evaluate verdict
// Verdict of the job's role table over the asserts that meet it there
// and, if it holds, to write Tuple. In tuple-id mode (MSJ) Tuple is the
// guard tuple's id; EVAL, 1-ROUND and the filter carry the output fact.
// The tuple travels without its arity: the table knows it, and the
// kernel's decoder (reconcile.requestVerdict, then decodeValues at the
// verdict's arity) checks the payload against it.
type Request struct {
	Verdict int32
	Tuple   relation.Tuple
}

// Emit emits m under key at modelled size size.
func (m Request) Emit(em *mr.Emitter, key []byte, size int64) {
	var b [64]byte
	p := binary.AppendVarint(b[:0], int64(m.Verdict))
	em.Emit(key, TagRequest, size, m.Tuple.AppendKey(p))
}

// Assert is the assert message ("Assert κ"): a conditional fact of
// assert class Class exists with the record's join key.
type Assert struct {
	Class int32
}

// Emit emits m under key.
func (m Assert) Emit(em *mr.Emitter, key []byte) {
	var b [binary.MaxVarintLen64]byte
	em.Emit(key, TagAssert, assertBytes, binary.AppendVarint(b[:0], int64(m.Class)))
}

// DecodeAssert decodes a TagAssert payload. Class is whatever the bytes
// say: range-check it before it indexes anything.
func DecodeAssert(p []byte) Assert {
	c, rest := varint(p, "Assert")
	if len(rest) != 0 {
		mr.Corrupt("Assert payload")
	}
	return Assert{Class: int32(c)}
}

// TupleVal carries a whole tuple to a reducer that evaluates no
// verdict: the union / distinct jobs and HPAR's outer-join stages. The
// payload is the tuple's arity, then its values.
type TupleVal struct {
	T relation.Tuple
}

// Emit emits m under key.
func (m TupleVal) Emit(em *mr.Emitter, key []byte) {
	var b [64]byte
	p := binary.AppendUvarint(b[:0], uint64(len(m.T)))
	em.Emit(key, TagTupleVal, tupleTagByte+int64(len(m.T))*relation.BytesPerField, m.T.AppendKey(p))
}

// DecodeTupleVal decodes a TagTupleVal payload into dst (see
// decodeValues: nil for a tuple the caller keeps).
func DecodeTupleVal(dst relation.Tuple, p []byte) TupleVal {
	n, w := binary.Uvarint(p)
	if w <= 0 {
		mr.Corrupt("TupleVal payload")
	}
	return TupleVal{T: decodeValues(dst, p[w:], n, "TupleVal")}
}

// sanitizeName makes a string usable inside generated relation names.
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}
