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

// The five message types core's jobs shuffle. Each has a tag, an encoder
// (Emit: the payload is built in a stack buffer and copied into the map
// task's arena, so emitting allocates nothing), a decoder (over the
// payload bytes a reducer's mr.Group hands out; decoded values are
// copies) and a modelled size — the paper's byte accounting, which the
// encoded length never replaces. Integers travel as signed varints, a
// tuple as its arity and values at the payload's end; payloads only need in-process fidelity (interned string handles
// round-trip as their int64 values). A payload that does not decode is
// a damaged spill file: the decoders abort the task through mr.Corrupt,
// so the run fails with an error matching mr.ErrSpill.
const (
	TagReqID byte = iota + 1
	TagAssert
	TagReqTuple
	TagTupleVal
	TagXIndex
)

// Modelled message sizes in bytes. Requests in tuple-id mode carry a
// 4-byte equation tag and an 8-byte guard tuple reference — this is the
// paper's optimization (2): shuffling a reference instead of the tuple.
const (
	assertBytes  = 4
	reqIDBytes   = 12
	xIndexBytes  = 4
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

// lastVarint decodes a payload's final varint: nothing may follow it.
func lastVarint(p []byte, what string) int64 {
	v, rest := varint(p, what)
	if len(rest) != 0 {
		mr.Corrupt(what + " payload")
	}
	return v
}

// appendTuple appends t's encoding: its arity, then its values.
func appendTuple(dst []byte, t relation.Tuple) []byte {
	return t.AppendKey(binary.AppendUvarint(dst, uint64(len(t))))
}

// decodeTuple decodes the tuple that ends payload p into dst[:0],
// allocating — once, at the exact arity — only when dst is too small:
// pass a stack array's slice for a tuple that is read and dropped — an
// output fact included, since Relation.Add copies — and nil for one
// that is kept. The arity is checked against the bytes that remain (a
// value takes at least one) before it sizes anything.
func decodeTuple(dst relation.Tuple, p []byte, what string) relation.Tuple {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		mr.Corrupt(what + " payload")
	}
	p = p[w:]
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

// ReqID is the MSJ request message ("Req (κ_i, i); Out <ref>") in
// tuple-id mode: it asks whether a conditional fact matching equation Eq
// exists and, if so, marks guard tuple ID as satisfying that equation.
type ReqID struct {
	Eq int32
	ID int64
}

// Emit emits m under key.
func (m ReqID) Emit(em *mr.Emitter, key []byte) {
	var b [2 * binary.MaxVarintLen64]byte
	p := binary.AppendVarint(b[:0], int64(m.Eq))
	em.Emit(key, TagReqID, reqIDBytes, binary.AppendVarint(p, m.ID))
}

// DecodeReqID decodes a TagReqID payload.
func DecodeReqID(p []byte) ReqID {
	eq, p := varint(p, "ReqID")
	return ReqID{Eq: int32(eq), ID: lastVarint(p, "ReqID")}
}

// Assert is the MSJ assert message ("Assert κ"): a conditional fact of
// assert class Class exists with the record's join key.
type Assert struct {
	Class int32
}

// Emit emits m under key.
func (m Assert) Emit(em *mr.Emitter, key []byte) {
	var b [binary.MaxVarintLen64]byte
	em.Emit(key, TagAssert, assertBytes, binary.AppendVarint(b[:0], int64(m.Class)))
}

// DecodeAssert decodes a TagAssert payload.
func DecodeAssert(p []byte) Assert { return Assert{Class: int32(lastVarint(p, "Assert"))} }

// ReqTuple is the 1-ROUND request: it carries the projected output tuple
// directly, since the fused job has no EVAL stage to re-read the guard.
// Q identifies the query within the job; Disjunct identifies the literal
// group the key belongs to (used by the disjunctive 1-round variant; -1
// for the shared-key variant).
type ReqTuple struct {
	Q        int32
	Disjunct int32
	Out      relation.Tuple
}

// Emit emits m under key.
func (m ReqTuple) Emit(em *mr.Emitter, key []byte) {
	var b [64]byte
	p := binary.AppendVarint(b[:0], int64(m.Q))
	p = binary.AppendVarint(p, int64(m.Disjunct))
	em.Emit(key, TagReqTuple, tupleTagByte+4+int64(len(m.Out))*relation.BytesPerField, appendTuple(p, m.Out))
}

// DecodeReqTuple decodes a TagReqTuple payload, Out into dst (see
// decodeTuple: nil for a tuple the caller keeps).
func DecodeReqTuple(dst relation.Tuple, p []byte) ReqTuple {
	q, p := varint(p, "ReqTuple")
	d, p := varint(p, "ReqTuple")
	return ReqTuple{Q: int32(q), Disjunct: int32(d), Out: decodeTuple(dst, p, "ReqTuple")}
}

// TupleVal carries a full guard tuple into an EVAL reducer (the guard
// re-read of optimization (2)).
type TupleVal struct {
	T relation.Tuple
}

// Emit emits m under key.
func (m TupleVal) Emit(em *mr.Emitter, key []byte) {
	var b [64]byte
	em.Emit(key, TagTupleVal, tupleTagByte+int64(len(m.T))*relation.BytesPerField, appendTuple(b[:0], m.T))
}

// DecodeTupleVal decodes a TagTupleVal payload into dst (see
// decodeTuple: nil for a tuple the caller keeps).
func DecodeTupleVal(dst relation.Tuple, p []byte) TupleVal {
	return TupleVal{T: decodeTuple(dst, p, "TupleVal")}
}

// XIndex marks, in an EVAL job, that the key's guard tuple satisfies
// conditional atom Atom of its query.
type XIndex struct {
	Atom int32
}

// Emit emits m under key.
func (m XIndex) Emit(em *mr.Emitter, key []byte) {
	var b [binary.MaxVarintLen64]byte
	em.Emit(key, TagXIndex, xIndexBytes, binary.AppendVarint(b[:0], int64(m.Atom)))
}

// DecodeXIndex decodes a TagXIndex payload.
func DecodeXIndex(p []byte) XIndex { return XIndex{Atom: int32(lastVarint(p, "XIndex"))} }

// appendEvalKey appends the EVAL shuffle key (query index, guard tuple
// id) to dst, so mappers build it in a reused stack buffer.
func appendEvalKey(dst []byte, q int32, id int64) []byte {
	var b [2 * binary.MaxVarintLen64]byte
	n := binary.PutVarint(b[:], int64(q))
	n += binary.PutVarint(b[n:], id)
	return append(dst, b[:n]...)
}

// parseEvalKey decodes an EVAL shuffle key.
func parseEvalKey(key []byte) (q int32, id int64) {
	qv, n := binary.Varint(key)
	idv, _ := binary.Varint(key[n:])
	return int32(qv), idv
}

// idTuple wraps a guard tuple id as a unary relation tuple: the X_i
// output relations of an MSJ job hold these references. Output.Add
// copies it, so it never leaves the reducer's stack.
func idTuple(id int64) relation.Tuple { return relation.Tuple{relation.Value(id)} }

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
