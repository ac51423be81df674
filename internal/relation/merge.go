package relation

import (
	"fmt"
	"slices"
)

// Rows is a bag of tuples of one arity: the rows back to back in one
// flat, pointer-free slab, in append order, duplicates kept. It has no
// index, so an Append costs a copy of the values and nothing else. It is
// a reduce task's output buffer; Merge turns buffers into a Relation.
type Rows struct {
	arity int
	vals  []Value // row i is vals[i*arity : (i+1)*arity]
}

// NewRows returns an empty buffer of the given arity, which must be
// positive.
func NewRows(arity int) *Rows {
	if arity <= 0 {
		panic(fmt.Sprintf("relation.NewRows: non-positive arity %d", arity))
	}
	return &Rows{arity: arity}
}

// Append appends a copy of t's values, so t may be scratch the caller
// reuses. It panics if the arity does not match.
func (b *Rows) Append(t Tuple) {
	if len(t) != b.arity {
		panic(fmt.Sprintf("relation.Rows: appending tuple of arity %d to rows of arity %d", len(t), b.arity))
	}
	b.vals = append(b.vals, t...)
}

// Size returns the number of rows appended, duplicates included.
func (b *Rows) Size() int { return len(b.vals) / b.arity }

// Tuple returns the i-th row as a capacity-capped, read-only view.
func (b *Rows) Tuple(i int) Tuple {
	lo, hi := i*b.arity, (i+1)*b.arity
	return b.vals[lo:hi:hi]
}

// RowsOf returns a buffer over vals, rows of the given arity back to
// back: a view sharing vals, not a copy.
func RowsOf(arity int, vals []Value) *Rows {
	return &Rows{arity: arity, vals: vals[:len(vals):len(vals)]}
}

// RowsIn returns a buffer over r's rows: a view sharing r's slab.
func RowsIn(r *Relation) *Rows { return RowsOf(r.arity, r.vals) }

// Merge returns a relation of the given name and arity containing the
// rows of bufs, in buffer order, with first-occurrence dedup. It is the
// job-output merge of the MapReduce engine and the only place a job's
// output tuples are hashed: reduce tasks append to unindexed buffers,
// and the job's result is their ordered union — one buffer per reduce
// task, in reducer order and, for a partition cut at group boundaries,
// piece order. Done the plain way, in one pass over one slab: the
// buffers' rows, concatenated in buffer order into a slab sized once for
// their total — or, when only one buffer holds rows, that buffer's slab
// itself — are deduplicated in place, each row's first occurrence kept
// and moved down over the rows dropped before it, under an index built
// once.
//
// Merge consumes its buffers: the result may own one's slab, whose rows
// it has moved, so the caller must not read or append to the buffers
// afterwards. The result itself is an ordinary relation and may be
// added to; its first Add builds the index.
//
// Duplicates reach the merge, so the slab it sized for its input can
// far exceed what the kept rows need. The benchmark's merges keep
// 84–100 % of their rows where r > 1 (nested-sgf, skew-spill) and
// 31–100 % on the serving workloads, whose merges are all one buffer;
// serving text S4's output, 1 584 tuples of 5 042 appended, is the one
// under half. Whenever the slab's capacity would be more than twice its
// rows, Merge copies them to a tight slab. The dedup's index is dropped
// before Merge returns: a job's output is scanned by the jobs that read
// it, never probed, so a merged relation retains its values only, in
// at most twice the storage they need.
//
// A view (RowsOf, RowsIn) of values its owner keeps — a published
// relation's slab, a pooled arena — may go to Merge only beside another
// non-empty buffer: a lone one would be adopted, its rows moved in
// place.
//
// Nil and empty buffers are skipped; non-empty buffers of a different
// arity panic, as Add would.
func Merge(name string, arity int, bufs []*Rows) *Relation {
	var only *Rows
	live, total := 0, 0
	for _, b := range bufs {
		if b == nil || len(b.vals) == 0 {
			continue
		}
		if b.arity != arity {
			panic("relation.Merge: source arity mismatch")
		}
		only = b
		live++
		total += b.Size()
	}
	out := New(name, arity)
	if live == 1 {
		out.vals = only.vals
	} else {
		out.vals = make([]Value, 0, total*arity)
		for _, b := range bufs {
			if b != nil {
				out.vals = append(out.vals, b.vals...)
			}
		}
	}
	out.dedup()
	if cap(out.vals) > 2*len(out.vals) {
		out.vals = slices.Clone(out.vals)
	}
	return out
}
